package main

import (
	"math"
	"math/bits"
	"runtime/metrics"
	"sort"
	"time"
)

// epoch anchors now(): time.Since reads the monotonic clock, so spans
// and latencies from every goroutine share one time base.
var epoch = time.Now()

// now returns monotonic nanoseconds since the benchmark started.
func now() int64 { return int64(time.Since(epoch)) }

// histSubBits sets the histogram's resolution: 2^7 linear sub-buckets
// per power of two, so a bucket is at most 1/128 (0.8%) of its value
// wide. Quantiles interpolate inside the bucket, so reported values are
// not snapped to bucket edges and keep all their digits.
const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histBuckets = 64 * histSub
)

// hist is a fixed-size log-linear histogram of non-negative nanosecond
// samples. It never allocates after construction, so recording inside
// the timed window costs the program under test nothing. Not safe for
// concurrent use: each generator owns its own and they are merged.
type hist struct {
	counts [histBuckets]uint64
	n      int64
	sum    float64
}

func newHist() *hist { return &hist{} }

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - histSubBits - 1
	sub := int(uint64(v)>>uint(shift)) & (histSub - 1)
	return (shift+1)*histSub + sub
}

// histBounds returns the smallest value of bucket idx and its width.
func histBounds(idx int) (low, width float64) {
	if idx < histSub {
		return float64(idx), 1
	}
	shift := idx/histSub - 1
	sub := idx % histSub
	return float64(int64(histSub+sub) << uint(shift)), float64(int64(1) << uint(shift))
}

func (h *hist) record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histIndex(v)]++
	h.n++
	h.sum += float64(v)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

func (h *hist) count() int64 { return h.n }

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// quantile returns the q-quantile, interpolated linearly inside the
// bucket that holds it; 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			low, width := histBounds(i)
			return low + width*(target-cum)/float64(c)
		}
		cum = next
	}
	low, width := histBounds(histBuckets - 1)
	return low + width
}

// subWindows is how many equal parts a measured window is cut into for
// the end-to-end latencies. Each latency quantile is the median of the
// parts' quantiles, so one stall in one part — a disk or scheduler
// hiccup on a shared host — moves the reported value less.
const subWindows = 5

// latency records one op class's latencies by the part of the window
// the op completed in.
type latency struct {
	start int64
	part  int64
	parts [subWindows]hist
}

// newLatency covers the window [start, deadline); deadline -1 (no
// window, as in warm-up) puts everything in one part.
func newLatency(start, deadline int64) *latency {
	l := &latency{start: start, part: (deadline - start) / subWindows}
	if deadline < 0 || l.part <= 0 {
		l.part = math.MaxInt64
	}
	return l
}

func (l *latency) record(at, v int64) {
	i := (at - l.start) / l.part
	l.parts[min(max(i, 0), subWindows-1)].record(v)
}

func (l *latency) merge(o *latency) {
	for i := range l.parts {
		l.parts[i].merge(&o.parts[i])
	}
}

func (l *latency) count() int64 {
	var n int64
	for i := range l.parts {
		n += l.parts[i].n
	}
	return n
}

// quantile returns the median over the non-empty parts of their
// q-quantiles.
func (l *latency) quantile(q float64) float64 {
	var qs []float64
	for i := range l.parts {
		if l.parts[i].n > 0 {
			qs = append(qs, l.parts[i].quantile(q))
		}
	}
	return median(qs)
}

// partRates returns, per part of the window, how many ops the
// latencies together recorded per second. Throughput is reported as
// their median, for the reason latencies are: a garbage collection of
// a large heap lasts about a second, and whether a window holds three
// of them or four moves its plain average by several percent.
func partRates(ls ...*latency) []float64 {
	rates := make([]float64, subWindows)
	for _, l := range ls {
		for i := range l.parts {
			rates[i] += float64(l.parts[i].n) / (float64(l.part) / 1e9)
		}
	}
	return rates
}

// median returns the middle value of xs (which it sorts); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// memStats reads process-wide allocation counters through runtime/metrics,
// which needs no stop-the-world (unlike runtime.ReadMemStats).
type memStats struct {
	samples []metrics.Sample
}

func newMemStats() *memStats {
	return &memStats{samples: []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/live:bytes"},
	}}
}

// read returns the cumulative heap allocation count and the live heap
// the last garbage collection marked.
func (m *memStats) read() (allocs, liveBytes uint64) {
	metrics.Read(m.samples)
	return m.samples[0].Value.Uint64(), m.samples[1].Value.Uint64()
}

// window times one measured interval from outside the program: wall
// time, process-wide allocations and the peak live heap, sampled on the
// caller's goroutine while it waits for the interval to end.
type window struct {
	mem      *memStats
	start    int64
	allocs0  uint64
	heapPeak uint64
}

func startWindow() *window {
	w := &window{mem: newMemStats()}
	w.allocs0, w.heapPeak = w.mem.read()
	w.start = now()
	return w
}

// waitUntil blocks until the monotonic deadline, sampling the live heap
// every 10ms and calling tick (if non-nil) on each sample.
func (w *window) waitUntil(deadline int64, tick func()) {
	for {
		d := deadline - now()
		if d <= 0 {
			return
		}
		if d > int64(10*time.Millisecond) {
			d = int64(10 * time.Millisecond)
		}
		time.Sleep(time.Duration(d))
		if _, live := w.mem.read(); live > w.heapPeak {
			w.heapPeak = live
		}
		if tick != nil {
			tick()
		}
	}
}

// end returns the window's elapsed seconds and heap allocations.
func (w *window) end() (seconds float64, allocs uint64) {
	elapsed := now() - w.start
	a, live := w.mem.read()
	if live > w.heapPeak {
		w.heapPeak = live
	}
	return float64(elapsed) / 1e9, a - w.allocs0
}
