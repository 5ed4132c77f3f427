package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"

	"doppel"
)

// The wire protocol is a stream of length-prefixed frames in each
// direction. Every frame is a 4-byte big-endian payload length followed
// by the payload; payloads use varint-encoded fields (the same style as
// internal/store's codec) so small requests stay small.
//
// Request payload:
//
//	uvarint  request ID (echoed in the response; unique per connection)
//	uvarint  procedure name length, then the name bytes
//	uvarint  argument count
//	args     each: 1 tag byte, then a tag-specific payload
//
// Response payload:
//
//	uvarint  request ID
//	byte     status (statusOK, statusErr, statusUnknownProc)
//	body     statusOK: one typed result arg; otherwise an error message
//	         (uvarint length + bytes)
//
// Because requests carry IDs, responses may be written in any order: a
// client keeps many requests in flight on one connection and matches
// responses by ID.

// DefaultMaxFrame bounds a frame payload unless Options override it. A
// peer announcing a larger frame is rejected before any allocation.
const DefaultMaxFrame = 1 << 20

// maxArgs bounds the argument count of one request.
const maxArgs = 1 << 16

// Response status codes. The typed error statuses carry a doppel
// sentinel across the wire: the body is still the full error message,
// but the client rebuilds an error that errors.Is-matches the sentinel,
// so remote callers branch on ErrClosed and friends exactly as embedded
// callers do.
const (
	statusOK                  = 0 // body is the typed result
	statusErr                 = 1 // body is the handler's error message
	statusUnknownProc         = 2 // body is the unregistered procedure name
	statusErrClosed           = 3 // body wraps doppel.ErrClosed
	statusErrRequiresRedoLog  = 4 // body wraps doppel.ErrRequiresRedoLog
	statusErrLogExists        = 5 // body wraps doppel.ErrLogExists
	statusErrReadOnly         = 6 // body wraps doppel.ErrReadOnly
	statusErrOverloaded       = 7 // body wraps doppel.ErrOverloaded
	statusErrRetriesExhausted = 8 // body wraps doppel.ErrRetriesExhausted
)

// statusForError picks the response status for a handler failure,
// promoting recognized sentinels to their typed codes.
func statusForError(err error) byte {
	switch {
	case errors.Is(err, doppel.ErrClosed):
		return statusErrClosed
	case errors.Is(err, doppel.ErrRequiresRedoLog):
		return statusErrRequiresRedoLog
	case errors.Is(err, doppel.ErrLogExists):
		return statusErrLogExists
	case errors.Is(err, doppel.ErrReadOnly):
		return statusErrReadOnly
	case errors.Is(err, doppel.ErrOverloaded):
		return statusErrOverloaded
	case errors.Is(err, doppel.ErrRetriesExhausted):
		return statusErrRetriesExhausted
	default:
		return statusErr
	}
}

// sentinelFor returns the doppel sentinel a typed status carries, nil
// for the untyped statuses.
func sentinelFor(status byte) error {
	switch status {
	case statusErrClosed:
		return doppel.ErrClosed
	case statusErrRequiresRedoLog:
		return doppel.ErrRequiresRedoLog
	case statusErrLogExists:
		return doppel.ErrLogExists
	case statusErrReadOnly:
		return doppel.ErrReadOnly
	case statusErrOverloaded:
		return doppel.ErrOverloaded
	case statusErrRetriesExhausted:
		return doppel.ErrRetriesExhausted
	default:
		return nil
	}
}

// remoteError is a per-call failure that arrived with a typed status:
// it reports the server's message and unwraps to the sentinel.
type remoteError struct {
	sentinel error
	msg      string
}

func (e *remoteError) Error() string { return e.msg }
func (e *remoteError) Unwrap() error { return e.sentinel }

// Argument tag bytes.
const (
	tagNil   = 0
	tagInt   = 1
	tagBytes = 2
)

// ArgKind identifies the type of an Arg.
type ArgKind uint8

// Argument kinds.
const (
	ArgNil   ArgKind = ArgKind(tagNil)   // absent value (e.g. a void result)
	ArgInt   ArgKind = ArgKind(tagInt)   // int64
	ArgBytes ArgKind = ArgKind(tagBytes) // byte string (also used for text)
)

// Arg is one typed argument or result value on the wire.
type Arg struct {
	kind ArgKind
	n    int64
	b    []byte
}

// Nil is the absent Arg (a void result).
var Nil = Arg{}

// Int returns an integer Arg.
func Int(n int64) Arg { return Arg{kind: ArgInt, n: n} }

// Str returns a byte-string Arg holding s.
func Str(s string) Arg { return Arg{kind: ArgBytes, b: []byte(s)} }

// Bytes returns a byte-string Arg holding b. The caller must not modify
// b afterwards.
func Bytes(b []byte) Arg { return Arg{kind: ArgBytes, b: b} }

// Kind reports the Arg's type.
func (a Arg) Kind() ArgKind { return a.kind }

// IsNil reports whether the Arg is absent.
func (a Arg) IsNil() bool { return a.kind == ArgNil }

// Int64 returns the Arg as an int64. Byte-string args are parsed as
// decimal, so text-oriented clients (the CLI) interoperate with integer
// procedures.
func (a Arg) Int64() (int64, error) {
	switch a.kind {
	case ArgInt:
		return a.n, nil
	case ArgBytes:
		return strconv.ParseInt(string(a.b), 10, 64)
	default:
		return 0, errors.New("server: nil argument where integer expected")
	}
}

// Bytes returns the Arg's byte-string payload (nil for other kinds).
func (a Arg) Bytes() []byte { return a.b }

// String renders the Arg as text: integers in decimal, byte strings
// verbatim, nil as "".
func (a Arg) String() string {
	switch a.kind {
	case ArgInt:
		return strconv.FormatInt(a.n, 10)
	case ArgBytes:
		return string(a.b)
	default:
		return ""
	}
}

// UnknownProcedureError reports a call to a procedure the server has no
// handler for. Detect it with errors.As; the connection stays usable.
type UnknownProcedureError struct {
	Name string
}

func (e *UnknownProcedureError) Error() string {
	return "server: unknown procedure " + strconv.Quote(e.Name)
}

// FrameSizeError reports a frame whose announced payload length exceeds
// the connection's limit. The frame is rejected before any allocation
// and the connection is closed, since the stream can no longer be
// trusted.
type FrameSizeError struct {
	Size  int
	Limit int
}

func (e *FrameSizeError) Error() string {
	return fmt.Sprintf("server: frame of %d bytes exceeds limit %d", e.Size, e.Limit)
}

// --- framing ---

// frameHeader is the length prefix's size in bytes.
const frameHeader = 4

// maxRetainedFrame bounds the read buffer a frameReader keeps between
// frames; a larger payload is read into a one-off buffer instead, so one
// big request does not pin MaxFrame bytes for the connection's lifetime.
const maxRetainedFrame = 64 << 10

// frameReader reads length-prefixed frames from one connection into a
// single reused payload buffer. A payload is valid only until the next
// call to next: decoders copy out whatever must outlive it (byte-string
// arguments and results do).
type frameReader struct {
	br       *bufio.Reader
	maxFrame int
	hdr      [frameHeader]byte
	buf      []byte
}

func newFrameReader(r io.Reader, maxFrame int) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, 64<<10), maxFrame: maxFrame}
}

// next returns the next frame's payload. A frame announcing more than
// maxFrame bytes is rejected with a FrameSizeError before any
// allocation.
//
//doppel:hotpath
func (fr *frameReader) next() ([]byte, error) {
	if _, err := io.ReadFull(fr.br, fr.hdr[:]); err != nil {
		return nil, err
	}
	n := int64(binary.BigEndian.Uint32(fr.hdr[:]))
	if n > int64(fr.maxFrame) {
		return nil, frameTooLarge(n, fr.maxFrame)
	}
	payload := fr.payload(int(n))
	if _, err := io.ReadFull(fr.br, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// payload returns an n-byte buffer for the next frame: the reader's
// own, grown on demand up to maxRetainedFrame.
func (fr *frameReader) payload(n int) []byte {
	if n <= cap(fr.buf) {
		return fr.buf[:n]
	}
	return fr.grow(n)
}

// The cold paths below stay out of line so their allocations never
// appear in the hot-path bodies that call them.

//go:noinline
func (fr *frameReader) grow(n int) []byte {
	if n > maxRetainedFrame {
		return make([]byte, n)
	}
	fr.buf = make([]byte, n)
	return fr.buf
}

//go:noinline
func frameTooLarge(n int64, limit int) error {
	return &FrameSizeError{Size: int(n), Limit: limit}
}

// --- payload encoding ---
//
// Encoders append to a caller-supplied buffer, so the frame writer
// encodes straight into its pending output buffer; decoders read from
// the frame reader's reused buffer and copy what they keep.

func appendArg(buf []byte, a Arg) []byte {
	switch a.kind {
	case ArgInt:
		buf = append(buf, tagInt)
		return binary.AppendVarint(buf, a.n)
	case ArgBytes:
		buf = append(buf, tagBytes)
		buf = binary.AppendUvarint(buf, uint64(len(a.b)))
		return append(buf, a.b...)
	default:
		return append(buf, tagNil)
	}
}

// readArg decodes one argument. A byte string is copied out of buf:
// buf is the connection's reused read buffer, while handlers may keep
// args[i].Bytes() (store.BytesValue keeps the slice it is given).
func readArg(buf []byte) (Arg, []byte, error) {
	if len(buf) < 1 {
		return Nil, nil, errors.New("server: truncated argument tag")
	}
	tag := buf[0]
	buf = buf[1:]
	switch tag {
	case tagNil:
		return Nil, buf, nil
	case tagInt:
		n, w := binary.Varint(buf)
		if w <= 0 {
			return Nil, nil, errors.New("server: bad integer argument")
		}
		return Int(n), buf[w:], nil
	case tagBytes:
		l, w := binary.Uvarint(buf)
		if w <= 0 || l > uint64(len(buf)-w) {
			return Nil, nil, errors.New("server: truncated byte-string argument")
		}
		buf = buf[w:]
		b := make([]byte, l)
		copy(b, buf[:l])
		return Bytes(b), buf[l:], nil
	default:
		return Nil, nil, fmt.Errorf("server: unknown argument tag %d", tag)
	}
}

// appendRequest appends one request payload to buf.
//
//doppel:hotpath
func appendRequest(buf []byte, id uint64, name string, args []Arg) []byte {
	buf = binary.AppendUvarint(buf, id)
	buf = binary.AppendUvarint(buf, uint64(len(name)))
	buf = append(buf, name...)
	buf = binary.AppendUvarint(buf, uint64(len(args)))
	for _, a := range args {
		buf = appendArg(buf, a)
	}
	return buf
}

// decodeRequest decodes one request payload. name aliases buf; args are
// appended to argv (pass a reused backing array to decode without
// allocating) and never alias buf.
func decodeRequest(buf []byte, argv []Arg) (id uint64, name []byte, args []Arg, err error) {
	id, w := binary.Uvarint(buf)
	if w <= 0 {
		return 0, nil, nil, errors.New("server: truncated request ID")
	}
	buf = buf[w:]
	nl, w := binary.Uvarint(buf)
	if w <= 0 || nl > uint64(len(buf)-w) {
		return 0, nil, nil, errors.New("server: truncated procedure name")
	}
	buf = buf[w:]
	name = buf[:nl:nl]
	buf = buf[nl:]
	argc, w := binary.Uvarint(buf)
	if w <= 0 {
		return 0, nil, nil, errors.New("server: truncated arg count")
	}
	if argc > maxArgs {
		return 0, nil, nil, fmt.Errorf("server: %d args exceeds limit %d", argc, maxArgs)
	}
	buf = buf[w:]
	args = argv[:0]
	for i := uint64(0); i < argc; i++ {
		var a Arg
		a, buf, err = readArg(buf)
		if err != nil {
			return 0, nil, nil, err
		}
		args = append(args, a)
	}
	return id, name, args, nil
}

// appendResponse appends one response payload to buf: result for
// statusOK, msg for every other status.
//
//doppel:hotpath
func appendResponse(buf []byte, id uint64, status byte, result Arg, msg string) []byte {
	buf = binary.AppendUvarint(buf, id)
	buf = append(buf, status)
	if status == statusOK {
		return appendArg(buf, result)
	}
	buf = binary.AppendUvarint(buf, uint64(len(msg)))
	return append(buf, msg...)
}

// appendResult appends the response to a completed request: the
// handler's error with its status, or the result — downgraded to an
// error when its payload would exceed limit. The downgrade message
// states that the transaction committed: the client must not treat it
// as a safe-to-retry failure.
//
//doppel:hotpath
func appendResult(buf []byte, id uint64, result Arg, err error, limit int) []byte {
	if err != nil {
		return appendResponse(buf, id, statusForError(err), Nil, err.Error())
	}
	start := len(buf)
	buf = appendResponse(buf, id, statusOK, result, "")
	if size := len(buf) - start; size > limit {
		return appendResponse(buf[:start], id, statusErr, Nil, droppedResult(size, limit))
	}
	return buf
}

//go:noinline
func droppedResult(size, limit int) string {
	return "transaction committed but result dropped: " +
		(&FrameSizeError{Size: size, Limit: limit}).Error()
}

// decodeResponse splits per-call failures (callErr: the procedure
// failed, the connection stays usable) from wire corruption (wireErr:
// the stream can no longer be trusted).
func decodeResponse(buf []byte) (id uint64, result Arg, callErr, wireErr error) {
	id, w := binary.Uvarint(buf)
	if w <= 0 {
		return 0, Nil, nil, errors.New("server: truncated response ID")
	}
	buf = buf[w:]
	if len(buf) < 1 {
		return 0, Nil, nil, errors.New("server: truncated response status")
	}
	status := buf[0]
	buf = buf[1:]
	if status == statusOK {
		result, _, wireErr = readArg(buf)
		return id, result, nil, wireErr
	}
	ml, w := binary.Uvarint(buf)
	if w <= 0 || ml > uint64(len(buf)-w) {
		return 0, Nil, nil, errors.New("server: truncated error message")
	}
	msg := string(buf[w : w+int(ml)])
	switch status {
	case statusUnknownProc:
		return id, Nil, &UnknownProcedureError{Name: msg}, nil
	case statusErr:
		return id, Nil, errors.New(msg), nil
	default:
		if sentinel := sentinelFor(status); sentinel != nil {
			return id, Nil, &remoteError{sentinel: sentinel, msg: msg}, nil
		}
		return 0, Nil, nil, fmt.Errorf("server: unknown response status %d", status)
	}
}
