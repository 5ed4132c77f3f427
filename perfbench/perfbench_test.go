package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"doppel/internal/workload"
)

// TestSameSeedSameOperations checks that each workload's generators
// produce the same operation sequence for the same seed, and a
// different one for another seed.
func TestSameSeedSameOperations(t *testing.T) {
	zipf := workload.NewZipf(likePages, likeAlpha)
	shard := make([]uint8, wireKeys)
	for i := range shard {
		shard[i] = uint8(i % wireShards)
	}
	seqs := map[string]func(seed uint64) []any{
		"like": func(seed uint64) []any {
			var out []any
			for _, s := range newLikeStreams(seed, 2, zipf) {
				for i := 0; i < 5000; i++ {
					out = append(out, s.next())
				}
			}
			return out
		},
		"wire-cluster": func(seed uint64) []any {
			var out []any
			for _, s := range newWireStreams(seed, 2, shard) {
				for i := 0; i < 5000; i++ {
					out = append(out, s.next())
				}
			}
			return out
		},
		"durable-follow": func(seed uint64) []any {
			var out []any
			s := newDurStream(seed)
			for i := 0; i < 5000; i++ {
				out = append(out, s.next())
			}
			return out
		},
	}
	for name, gen := range seqs {
		a, b, c := gen(1), gen(1), gen(2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 produced two different sequences", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 produced the same sequence", name)
		}
	}
}

// TestShortRunReportsEveryMetric runs each workload briefly, untraced
// and traced, and checks that the report names every metric with its
// unit and that the JSON result line carries exactly the metrics
// BENCHMARK.json lists.
func TestShortRunReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			c := &config{workload: w.name, seed: 7, seconds: 1, trace: traced, workdir: t.TempDir(),
				nproc: 2, setups: 1, facts: map[string]any{}}
			var out bytes.Buffer
			rep, err := run(c, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !rep.correct() {
				t.Fatalf("%s trace=%v: checks failed: %+v", w.name, traced, rep.checks)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			for _, d := range want {
				if !hasMetricLine(lines, d) {
					t.Errorf("%s trace=%v: no line for %s in %s", w.name, traced, d.name, d.unit)
				}
			}
			if !traced {
				for _, d := range extraEndToEnd {
					if strings.HasPrefix(d.name, "xfer") && w.name != "wire-cluster" {
						continue
					}
					if !hasMetricLine(lines, d) {
						t.Errorf("%s: no line for %s in %s", w.name, d.name, d.unit)
					}
				}
			}
			var res jsonResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v", w.name, err)
			}
			if len(res.Metrics) != len(want) || res.Attempted < 1 || !res.Correct {
				t.Errorf("%s trace=%v: result %+v", w.name, traced, res)
			}
			for _, d := range want {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: result metric %s = %+v", w.name, traced, d.name, m)
				}
			}
		}
	}
}

func hasMetricLine(lines []string, d metricDef) bool {
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) >= 4 && f[0] == "metric" && f[1] == d.name && f[3] == d.unit {
			return true
		}
	}
	return false
}

// TestChecksRejectTamperedResults feeds each output check a result with
// one defect and expects exactly that check to fail.
func TestChecksRejectTamperedResults(t *testing.T) {
	failed := func(rs []checkResult) []string {
		var out []string
		for _, r := range rs {
			if r.err != nil {
				out = append(out, r.name)
			}
		}
		return out
	}
	expect := func(label string, rs []checkResult, want ...string) {
		t.Helper()
		if got := failed(rs); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: failing checks %v, want %v", label, got, want)
		}
	}

	like := likeOutcome{pageSum: 100, ackedWrites: 100}
	expect("like healthy", checkLike(like))
	lost := like
	lost.pageSum--
	expect("like lost write", checkLike(lost), "like.page_sum")
	merge := like
	merge.mergeFailures = 1
	expect("like merge failure", checkLike(merge), "like.merge_failures")
	drop := like
	drop.stashDropped = 1
	expect("like stash drop", checkLike(drop), "like.stash_dropped")

	wire := wireOutcome{counterSum: 1500, initialSum: 1000, ackedAdds: 500}
	expect("wire healthy", checkWire(wire))
	lostAdd := wire
	lostAdd.counterSum--
	expect("wire lost add", checkWire(lostAdd), "wire.counter_sum")
	unbalanced := wire
	unbalanced.counterSum++ // an xfer that added without subtracting
	expect("wire unbalanced xfer", checkWire(unbalanced), "wire.counter_sum")
	applyLost := wire
	applyLost.applyLost = 1
	expect("wire apply lost", checkWire(applyLost), "wire.apply_lost")

	m := newDurableModel(3)
	m.acked[0], m.acked[2] = 2, 1
	m.seqAcked = []bool{true, true, true}
	rows := func() []durableRow {
		return []durableRow{{2, profile(0, 1)}, {0, profile(1, -1)}, {1, profile(2, 2)}}
	}
	expect("durable healthy", checkDurable(m, rows(), rows(), ""))
	r := rows()
	r[0].counter--
	expect("durable lost write", checkDurable(m, r, rows(), ""), "durable.recover_acked", "durable.replica_identical")
	r = rows()
	r[2].profile = profile(2, -1)
	expect("durable stale profile", checkDurable(m, r, r, ""), "durable.recover_acked")
	m.seqAcked[2] = false
	expect("durable unacknowledged profile", checkDurable(m, rows(), rows(), ""), "durable.recover_acked")
	m.seqAcked[2] = true
	r = rows()
	r[1].counter++
	expect("durable replica diverged", checkDurable(m, rows(), r, ""), "durable.replica_identical")
	expect("durable tail error", checkDurable(m, rows(), rows(), "segment corrupt"), "durable.tail_error")
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// lists the benchmark prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if errors.Is(err, os.ErrNotExist) {
		t.Skip("no BENCHMARK.json next to this directory")
	}
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(label string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d printed", label, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, printed %+v", label, i, got[i], d)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d defined", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q defined", i, doc.Workloads[i].Name, w.name)
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	h := newHist()
	for v := int64(1); v <= 100000; v++ {
		h.record(v * 10)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := q * 1e6
		if got := h.quantile(q); got < want*0.99 || got > want*1.01 {
			t.Errorf("q%.2f = %.0f, want %.0f within 1%%", q, got, want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{start: 0, end: 100}
	kids := []span{{start: 10, end: 30}, {start: 20, end: 40}, {start: 90, end: 120}}
	if got := selfTime(parent, kids); got != 100-30-10 {
		t.Errorf("self time %d, want 60", got)
	}
}
