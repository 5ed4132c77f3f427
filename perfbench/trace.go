package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync/atomic"

	"doppel"
	"doppel/internal/engine"
)

// spanKind names a span. Spans are recorded only by the benchmark: the
// op and wire.call spans around calls into the public API, the body
// span inside the transaction bodies and server handlers the benchmark
// owns, and checkpoint/repl.wait/recover around the calls it makes.
type spanKind uint8

const (
	spanOp spanKind = iota
	spanWire
	spanBody
	spanCheckpoint
	spanReplWait
	spanRecover
)

var spanNames = [...]string{"op", "wire.call", "body", "checkpoint", "repl.wait", "recover"}

// Op classes, carried in an op span's flags.
const (
	classRead uint8 = iota
	classWrite
	classXfer
)

var classNames = [...]string{"read", "write", "xfer"}

// Body span flags: what the run saw from the layers below it.
const (
	flagRouter uint8 = 1 << iota // run by the router (probe or gather), not a shard worker
	flagStash                    // an operation returned engine.ErrStash: the run was stashed
	flagFence                    // an operation returned engine.ErrFenced
	flagErr                      // any other error ended the run (router probe, reroute)
)

// span is one traced interval. Parent indexes the same buffer (-1 for a
// root); all spans of one request share id.
type span struct {
	id      uint64
	start   int64
	end     int64
	parent  int32
	kind    spanKind
	flags   uint8
	attempt uint16
}

// spanBuf is one generator's preallocated span buffer, written only by
// its owner and read after the run ends.
type spanBuf struct {
	spans   []span
	dropped int64
}

func newSpanBuf(capacity int) *spanBuf { return &spanBuf{spans: make([]span, 0, capacity)} }

// add appends s and returns its index, or -1 once the buffer is full.
func (b *spanBuf) add(s span) int32 {
	if len(b.spans) == cap(b.spans) {
		b.dropped++
		return -1
	}
	b.spans = append(b.spans, s)
	return int32(len(b.spans) - 1)
}

// spansPerGen bounds each generator's buffer (40 bytes a span).
const spansPerGen = 1 << 18

// tracer is the traced run's configuration and its per-generator
// buffers. Every op in the traced window counts its body runs; one op
// in every `every` also records spans, so the buffers hold the whole
// window.
type tracer struct {
	every int64
	bufs  []*spanBuf
}

// newTracer sizes sampling so that expectedOps ops of about
// spansPerOp spans each fit the gens buffers.
func newTracer(gens int, expectedOps float64, spansPerOp float64) *tracer {
	t := &tracer{every: 1}
	if need := expectedOps * spansPerOp / float64(gens*spansPerGen); need > 1 {
		t.every = int64(need) + 1
	}
	for i := 0; i < gens; i++ {
		t.bufs = append(t.bufs, newSpanBuf(spansPerGen))
	}
	return t
}

// maxRuns bounds the body runs whose times one op keeps.
const maxRuns = 8

type bodyRun struct {
	start atomic.Int64
	end   atomic.Int64
	flags atomic.Uint32
}

// bodyRuns collects one in-flight op's body runs. Runs of one op are
// sequential, but they execute on worker, router and server goroutines
// while the generator reads the result after a reply that may have
// crossed a socket, so every field is atomic.
type bodyRuns struct {
	sampled atomic.Bool
	n       atomic.Int32 // runs so far, counted for every traced-window op
	router  atomic.Int32 // runs made by the router (WorkerID < 0)
	runs    [maxRuns]bodyRun
}

func (b *bodyRuns) reset(sampled bool) {
	b.sampled.Store(sampled)
	b.n.Store(0)
	b.router.Store(0)
}

// enter starts a body run and returns its index.
func (b *bodyRuns) enter(tx doppel.Tx) int {
	i := int(b.n.Add(1)) - 1
	var flags uint8
	if tx.WorkerID() < 0 {
		b.router.Add(1)
		flags = flagRouter
	}
	if i < maxRuns && b.sampled.Load() {
		b.runs[i].start.Store(now())
		b.runs[i].flags.Store(uint32(flags))
	}
	return i
}

// exit ends run i, noting what its error says about the layers below.
func (b *bodyRuns) exit(i int, err error) {
	if i >= maxRuns || !b.sampled.Load() {
		return
	}
	b.runs[i].end.Store(now())
	var f uint8
	switch {
	case err == nil:
	case errors.Is(err, engine.ErrStash):
		f = flagStash
	case errors.Is(err, engine.ErrFenced):
		f = flagFence
	default:
		f = flagErr
	}
	if f != 0 {
		b.runs[i].flags.Store(b.runs[i].flags.Load() | uint32(f))
	}
}

// appendTo writes the recorded runs as body spans under parent.
func (b *bodyRuns) appendTo(buf *spanBuf, id uint64, parent int32) {
	n := int(b.n.Load())
	if n > maxRuns {
		n = maxRuns
	}
	for i := 0; i < n; i++ {
		r := &b.runs[i]
		buf.add(span{id: id, start: r.start.Load(), end: r.end.Load(), parent: parent,
			kind: spanBody, flags: uint8(r.flags.Load()), attempt: uint16(i)})
	}
}

// opGroup is one traced op: its root span followed by its children.
type opGroup struct {
	op     span
	wire   *span
	bodies []span
}

// firstEntry, lastExit and friends summarise an op's body runs.
func (g *opGroup) firstEntry() int64 { return g.bodies[0].start }
func (g *opGroup) lastEntry() int64  { return g.bodies[len(g.bodies)-1].start }
func (g *opGroup) lastExit() int64   { return g.bodies[len(g.bodies)-1].end }

func (g *opGroup) has(flag uint8) bool {
	for _, b := range g.bodies {
		if b.flags&flag != 0 {
			return true
		}
	}
	return false
}

// forEachOp walks the op groups of every buffer. Groups are contiguous:
// a generator appends an op's spans together when the op completes.
// Groups whose children were cut off by a full buffer are skipped.
func forEachOp(bufs []*spanBuf, fn func(g *opGroup)) {
	var g opGroup
	for _, b := range bufs {
		s := b.spans
		for i := 0; i < len(s); {
			if s[i].kind != spanOp {
				i++
				continue
			}
			g = opGroup{op: s[i], bodies: g.bodies[:0]}
			j := i + 1
			for ; j < len(s) && s[j].parent >= 0 && s[j].id == s[i].id; j++ {
				switch s[j].kind {
				case spanWire:
					g.wire = &s[j]
				case spanBody:
					g.bodies = append(g.bodies, s[j])
				}
			}
			if len(g.bodies) > 0 {
				fn(&g)
			}
			i = j
		}
	}
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.start, parent.start), min(k.end, parent.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, reach := int64(0), parent.start
	for _, v := range ivs {
		if v.b <= reach {
			continue
		}
		covered += v.b - max(v.a, reach)
		reach = v.b
	}
	return parent.end - parent.start - covered
}

// summarizeSpans returns, per span name, the median duration and median
// self time in microseconds, the reading aid the trace doc describes.
func summarizeSpans(bufs []*spanBuf) []string {
	dur := map[string]*hist{}
	self := map[string]*hist{}
	rec := func(name string, s span, kids []span) {
		if dur[name] == nil {
			dur[name], self[name] = newHist(), newHist()
		}
		dur[name].record(s.end - s.start)
		self[name].record(selfTime(s, kids))
	}
	forEachOp(bufs, func(g *opGroup) {
		kids := g.bodies
		if g.wire != nil {
			rec("wire.call", *g.wire, g.bodies)
			kids = []span{*g.wire}
		}
		rec("op."+classNames[g.op.flags], g.op, kids)
		for _, b := range g.bodies {
			rec("body", b, nil)
		}
	})
	for _, b := range bufs {
		for _, s := range b.spans {
			if s.kind >= spanCheckpoint {
				rec(spanNames[s.kind], s, nil)
			}
		}
	}
	var names []string
	for n := range dur {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []string
	for _, n := range names {
		out = append(out, fmt.Sprintf("span %s n=%d p50_us=%.3f self_p50_us=%.3f",
			n, dur[n].n, dur[n].quantile(0.5)/1e3, self[n].quantile(0.5)/1e3))
	}
	return out
}

// writeSpans writes every recorded span as CSV, one line a span.
func writeSpans(path string, bufs []*spanBuf) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "buf,index,id,name,parent,start_ns,end_ns,attempt,flags")
	n := 0
	for bi, b := range bufs {
		for i, s := range b.spans {
			fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d,%d,%d,%d\n", bi, i, s.id, spanNames[s.kind], s.parent, s.start, s.end, s.attempt, s.flags)
			n++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}
