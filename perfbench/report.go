package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef names one metric, its unit and which way is better.
type metricDef struct {
	name   string
	unit   string
	better string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload from the untraced run. BENCHMARK.json lists exactly these,
// with the bounds that gate them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"txn_per_s", "txn/s", "higher"},
	{"read_p50_us", "us", "lower"},
	{"write_p50_us", "us", "lower"},
	{"allocs_per_txn", "allocs/txn", "lower"},
	{"heap_peak_mb", "MiB", "lower"},
}

// extraEndToEnd are printed with the end-to-end metrics but kept out of
// the JSON result line. The p99s spread more than the largest bound a
// gate may have between identical runs on a shared 2-CPU host
// (README.md); xfer latency exists only on wire-cluster; failed_share is
// 0 on a healthy run, and the result line's failed and attempted carry
// it.
var extraEndToEnd = []metricDef{
	{"read_p99_us", "us", "lower"},
	{"write_p99_us", "us", "lower"},
	{"xfer_p50_us", "us", "lower"},
	{"xfer_p99_us", "us", "lower"},
	{"failed_share", "ratio", "lower"},
}

// perLayer are the traced run's metrics, one set for every workload; a
// layer a workload bypasses reports 0.
var perLayer = []metricDef{
	{"doppel.queue_wait_p50_us", "us", "lower"},
	{"doppel.queue_wait_p99_us", "us", "lower"},
	{"doppel.ack_wait_p50_us", "us", "lower"},
	{"doppel.ack_wait_p99_us", "us", "lower"},
	{"core.body_runs_per_txn", "runs/txn", "lower"},
	{"core.body_p50_us", "us", "lower"},
	{"core.abort_share", "ratio", "lower"},
	{"core.stash_share", "ratio", "lower"},
	{"core.stash_wait_p50_ms", "ms", "lower"},
	{"core.stash_wait_p99_ms", "ms", "lower"},
	{"core.phase_changes_per_s", "1/s", "lower"},
	{"core.split_keys_mean", "count", "higher"},
	{"core.fence_aborts_per_xfer", "count/xfer", "lower"},
	{"router.body_runs_per_txn", "runs/txn", "lower"},
	{"router.body_runs_per_xfer", "runs/xfer", "lower"},
	{"router.single_shard_share", "ratio", "higher"},
	{"router.reroutes_per_txn", "count/txn", "lower"},
	{"router.retries_per_xfer", "count/xfer", "lower"},
	{"router.fenced_keys_per_xfer", "count/xfer", "lower"},
	{"router.commit_p50_us", "us", "lower"},
	{"router.commit_p99_us", "us", "lower"},
	{"server.inbound_p50_us", "us", "lower"},
	{"server.inbound_p99_us", "us", "lower"},
	{"server.outbound_p50_us", "us", "lower"},
	{"server.outbound_p99_us", "us", "lower"},
	{"server.handled_p50_us", "us", "lower"},
	{"server.shed_share", "ratio", "lower"},
	{"wal.records_per_txn", "records/txn", "lower"},
	{"wal.bytes_per_txn", "B/txn", "lower"},
	{"checkpoint.total_p50_ms", "ms", "lower"},
	{"checkpoint.barrier_max_us", "us", "lower"},
	{"checkpoint.walk_p50_ms", "ms", "lower"},
	{"checkpoint.snapshot_mb", "MiB", "lower"},
	{"checkpoint.recover_ms", "ms", "lower"},
	{"repl.visible_mean_us", "us", "lower"},
	{"repl.visible_p99_us", "us", "lower"},
	{"repl.lag_records_mean", "records", "lower"},
	{"repl.lag_records_max", "records", "lower"},
	{"repl.records_per_poll", "records/poll", "higher"},
	{"repl.rebootstraps", "count", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
}

// checkResult is one output check: its name and nil or what failed.
type checkResult struct {
	name string
	err  error
}

// report collects one run's metrics, sample counts and checks.
type report struct {
	values    map[string]float64
	samples   map[string]int64
	attempted int64
	failed    int64
	checks    []checkResult
	notes     []string
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]int64{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// quantiler is a latency distribution: a hist or a sub-windowed latency.
type quantiler interface {
	quantile(q float64) float64
	count() int64
}

// setLatency stores h's median and p99 in microseconds under
// <prefix>_p50_us and <prefix>_p99_us with the sample count.
func (r *report) setLatency(prefix string, h quantiler) {
	r.setQuantiles(prefix, h, 1e3, "us")
}

// setQuantiles stores h's median and p99 scaled by 1/div.
func (r *report) setQuantiles(prefix string, h quantiler, div float64, unit string) {
	for _, q := range []struct {
		suffix string
		q      float64
	}{{"_p50_", 0.5}, {"_p99_", 0.99}} {
		name := prefix + q.suffix + unit
		r.values[name] = h.quantile(q.q) / div
		r.samples[name] = h.count()
	}
}

// zeroLayers reports every per-layer metric as 0 before a workload fills
// in the layers it exercises: a bypassed layer does no work.
func zeroLayers(rep *report) {
	for _, d := range perLayer {
		if _, ok := rep.values[d.name]; !ok {
			rep.values[d.name] = 0
		}
	}
}

// ratio divides, reporting 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func (r *report) correct() bool {
	for _, c := range r.checks {
		if c.err != nil {
			return false
		}
	}
	return len(r.checks) > 0
}

// print writes the human-readable lines for defs, then the checks.
func (r *report) print(w io.Writer, defs ...[]metricDef) {
	for _, n := range r.notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	for _, list := range defs {
		for _, d := range list {
			v, ok := r.values[d.name]
			if !ok {
				continue
			}
			line := fmt.Sprintf("metric %-30s %16.6f %-11s", d.name, v, d.unit)
			if n, ok := r.samples[d.name]; ok {
				line += fmt.Sprintf(" n=%d", n)
				if d.name[len(d.name)-6:] == "p99_us" && n < 1000 {
					line += " (fewer than 10 samples beyond p99)"
				}
			}
			fmt.Fprintln(w, line)
		}
	}
	for _, c := range r.checks {
		if c.err != nil {
			fmt.Fprintf(w, "check %s FAILED: %v\n", c.name, c.err)
		} else {
			fmt.Fprintf(w, "check %s ok\n", c.name)
		}
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// resultLine renders the final JSON line with exactly the metrics in defs.
func (r *report) resultLine(defs []metricDef) string {
	res := jsonResult{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // only plain numbers and strings: cannot fail
	}
	return string(b)
}
