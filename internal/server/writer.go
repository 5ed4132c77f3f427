package server

import (
	"encoding/binary"
	"io"
	"net"
	"sync"
	"time"
)

// flushThreshold is the pending-byte level at which the flusher stops
// waiting out FlushEvery for stragglers and writes at once.
const flushThreshold = 256 << 10

// maxPendingBytes bounds the bytes queued behind one connection's
// flusher. A peer that stops draining its socket hits this cap and is
// dropped; until then sends never block, which is what lets database
// workers complete requests without ever stalling on the network.
const maxPendingBytes = 32 << 20

// maxRetainedBatch bounds the output buffer the flusher keeps for reuse
// after writing a batch; a larger one (a burst, a huge result) is left
// to the GC.
const maxRetainedBatch = 1 << 20

// frameWriter batches frame writes through a single flusher goroutine.
// Senders encode their frame in place at the end of the pending byte
// buffer — reserve the 4-byte header, append the payload, patch the
// length — without blocking; the flusher swaps the pending buffer with
// its spare and writes the whole batch in one call when it wakes (after
// waiting flushEvery for stragglers, when set). Both ends of a
// connection use one — the server for out-of-order responses, the
// client for pipelined requests — so a burst of messages costs one
// syscall and no allocation per message.
//
// After the underlying writer errors, the goroutine keeps discarding
// batches without writing, so late senders stay cheap no-ops.
type frameWriter struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pend    []byte // encoded frames awaiting the flusher
	spare   []byte // the flusher's previous batch, recycled as pend
	writing int    // bytes of the batch the flusher is writing
	closed  bool

	done chan struct{}
	cfg  frameWriterConfig
}

// frameWriterConfig is the optional wiring around a frameWriter's loop.
type frameWriterConfig struct {
	flushEvery time.Duration
	// conn and writeTimeout together arm a write deadline before each
	// batch, so a peer that stops draining its socket breaks the writer
	// instead of wedging the flusher goroutine forever.
	conn         net.Conn
	writeTimeout time.Duration
	// onBroken runs once, from the flusher goroutine, when the writer
	// first fails. Servers use it to close the connection so the read
	// loop notices the peer is effectively gone.
	onBroken func()
}

func startFrameWriter(w io.Writer, flushEvery time.Duration) *frameWriter {
	return startFrameWriterCfg(w, frameWriterConfig{flushEvery: flushEvery})
}

func startFrameWriterCfg(w io.Writer, cfg frameWriterConfig) *frameWriter {
	fw := &frameWriter{done: make(chan struct{}), cfg: cfg}
	fw.cond = sync.NewCond(&fw.mu)
	go fw.loop(w)
	return fw
}

// armDeadline pushes the connection's write deadline ahead of a batch
// write.
func (fw *frameWriter) armDeadline() {
	if fw.cfg.conn != nil && fw.cfg.writeTimeout > 0 {
		_ = fw.cfg.conn.SetWriteDeadline(time.Now().Add(fw.cfg.writeTimeout))
	}
}

// begin locks the writer and reserves a frame header at the end of the
// pending buffer, returning the frame's offset. False (lock released)
// means the pending bytes are over their cap — the peer has stopped
// draining the connection — or the writer is closed; the caller should
// drop the connection.
func (fw *frameWriter) begin() (start int, ok bool) {
	fw.mu.Lock()
	if fw.closed || len(fw.pend)+fw.writing > maxPendingBytes {
		fw.mu.Unlock()
		return 0, false
	}
	start = len(fw.pend)
	fw.pend = append(fw.pend, 0, 0, 0, 0)
	return start, true
}

// end patches the length of the frame begun at start, unlocks, and
// wakes the flusher.
func (fw *frameWriter) end(start int) {
	binary.BigEndian.PutUint32(fw.pend[start:], uint32(len(fw.pend)-start-frameHeader))
	fw.mu.Unlock()
	fw.cond.Signal()
}

// send queues one already-encoded payload (a session's cached
// response, a rare error reply). False as for begin.
func (fw *frameWriter) send(payload []byte) bool {
	start, ok := fw.begin()
	if !ok {
		return false
	}
	fw.pend = append(fw.pend, payload...)
	fw.end(start)
	return true
}

// sendRequest encodes one request frame in place. size is the payload
// length; a payload over limit is discarded unsent (ok false, size >
// limit) because the peer would drop the whole connection for it — and
// a frame over 4 GiB would wrap the length header and desync the
// stream. ok false with size 0 is begin's failure.
//
//doppel:hotpath
func (fw *frameWriter) sendRequest(id uint64, name string, args []Arg, limit int) (size int, ok bool) {
	start, ok := fw.begin()
	if !ok {
		return 0, false
	}
	fw.pend = appendRequest(fw.pend, id, name, args)
	size = len(fw.pend) - start - frameHeader
	if size > limit {
		fw.pend = fw.pend[:start]
		fw.mu.Unlock()
		return size, false
	}
	fw.end(start)
	return size, true
}

// sendResponse encodes one completed request's response frame in place
// (see appendResult). False as for begin.
//
//doppel:hotpath
func (fw *frameWriter) sendResponse(id uint64, result Arg, err error, limit int) bool {
	start, ok := fw.begin()
	if !ok {
		return false
	}
	fw.pend = appendResult(fw.pend, id, result, err, limit)
	fw.end(start)
	return true
}

// close stops the flusher after the pending frames are written. All
// sends must have completed; callers typically sequence this with a
// WaitGroup.
func (fw *frameWriter) close() {
	fw.mu.Lock()
	fw.closed = true
	fw.mu.Unlock()
	fw.cond.Signal()
	<-fw.done
}

func (fw *frameWriter) loop(w io.Writer) {
	defer close(fw.done)
	broken := false
	for {
		fw.mu.Lock()
		for len(fw.pend) == 0 && !fw.closed {
			fw.cond.Wait()
		}
		if len(fw.pend) == 0 {
			fw.mu.Unlock() // closed and drained
			return
		}
		if fw.cfg.flushEvery > 0 && !fw.closed && !broken && len(fw.pend) < flushThreshold {
			// Wait briefly for stragglers — the extra latency buys larger
			// batches under sustained pipelined load.
			fw.mu.Unlock()
			time.Sleep(fw.cfg.flushEvery)
			fw.mu.Lock()
		}
		batch := fw.pend
		fw.pend, fw.spare = fw.spare[:0], nil
		fw.writing = len(batch)
		fw.mu.Unlock()

		if !broken {
			fw.armDeadline()
			if _, err := w.Write(batch); err != nil {
				broken = true
				if fw.cfg.onBroken != nil {
					fw.cfg.onBroken()
					fw.cfg.onBroken = nil
				}
			}
		}

		fw.mu.Lock()
		fw.writing = 0
		if cap(batch) <= maxRetainedBatch {
			fw.spare = batch[:0]
		}
		fw.mu.Unlock()
	}
}
