package server

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzWireCodec drives the request and response decoders with
// arbitrary payloads, read the way a connection reads them: through a
// frameReader whose one payload buffer is reused for the next frame.
// Decoding must never panic; whatever decodes must survive an
// encode→decode round trip; and decoded byte strings must not alias
// the read buffer — after the next frame overwrites it, the first
// frame's arguments and result must be unchanged.
func FuzzWireCodec(f *testing.F) {
	f.Add(appendRequest(nil, 42, "proc", []Arg{Str("a"), Str(""), Int(-7), Bytes([]byte{1, 2}), Nil}))
	f.Add(appendRequest(nil, 1, "get", []Arg{Int(1), Int(1 << 40)}))
	f.Add(appendResponse(nil, 9, statusOK, Str("value"), ""))
	f.Add(appendResponse(nil, 10, statusErrOverloaded, Nil, "overloaded"))
	f.Add([]byte{0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		// Two frames: the fuzzed payload, then the same number of 0xA5
		// bytes, which the reader decodes into the same buffer.
		var stream bytes.Buffer
		for _, p := range [][]byte{payload, bytes.Repeat([]byte{0xA5}, len(payload))} {
			var hdr [frameHeader]byte
			binary.BigEndian.PutUint32(hdr[:], uint32(len(p)))
			stream.Write(hdr[:])
			stream.Write(p)
		}
		fr := newFrameReader(&stream, DefaultMaxFrame)
		buf, err := fr.next()
		if err != nil {
			t.Fatalf("reading a well-formed frame: %v", err)
		}

		id, name, args, reqErr := decodeRequest(buf, nil)
		var wantArgs []Arg
		var wantName string
		if reqErr == nil {
			wantName = string(name)
			wantArgs = cloneArgs(args)
			again := appendRequest(nil, id, wantName, args)
			id2, name2, args2, err := decodeRequest(again, nil)
			if err != nil || id2 != id || string(name2) != wantName || !equalArgs(args2, args) {
				t.Fatalf("request round trip: %d %q %v %v -> %d %q %v", id, name, args, err, id2, name2, args2)
			}
		}
		rid, result, callErr, wireErr := decodeResponse(buf)
		var wantResult Arg
		if wireErr == nil {
			wantResult = cloneArgs([]Arg{result})[0]
			again := appendResult(nil, rid, result, callErr, DefaultMaxFrame)
			rid2, result2, callErr2, wireErr2 := decodeResponse(again)
			if wireErr2 != nil || rid2 != rid || !equalArgs([]Arg{result2}, []Arg{result}) {
				t.Fatalf("response round trip: %d %v -> %d %v %v", rid, result, rid2, result2, wireErr2)
			}
			if (callErr == nil) != (callErr2 == nil) || (callErr != nil && callErr.Error() != callErr2.Error()) {
				t.Fatalf("response error round trip: %v -> %v", callErr, callErr2)
			}
		}

		// Overwrite the reused buffer with the second frame.
		if _, err := fr.next(); err != nil {
			t.Fatalf("reading the second frame: %v", err)
		}
		if reqErr == nil && !equalArgs(args, wantArgs) {
			t.Fatalf("request args alias the read buffer: %v, want %v", args, wantArgs)
		}
		if wireErr == nil && !equalArgs([]Arg{result}, []Arg{wantResult}) {
			t.Fatalf("response result aliases the read buffer: %v, want %v", result, wantResult)
		}
	})
}

// cloneArgs deep-copies args, byte strings included.
func cloneArgs(args []Arg) []Arg {
	out := make([]Arg, len(args))
	for i, a := range args {
		out[i] = a
		if a.kind == ArgBytes {
			out[i].b = append([]byte{}, a.b...)
		}
	}
	return out
}

func equalArgs(a, b []Arg) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].kind != b[i].kind || a[i].n != b[i].n || !bytes.Equal(a[i].b, b[i].b) {
			return false
		}
	}
	return true
}
