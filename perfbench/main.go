// Command perfbench is the repository's benchmark. It drives one of
// three workloads through doppel's public surfaces only — doppel.DB,
// doppel.Cluster, doppel.Replica and the internal/server wire client —
// measures the end-to-end metrics a user sees, checks the program's
// outputs, and prints one JSON result line last. Build and run it from
// the root of a checkout with perfbench/run.sh; README.md in this
// directory defines every workload and metric.
//
//	perfbench --workload like --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"doppel"
	"doppel/internal/rng"
)

// instance is one set-up workload: the database and servers it opened,
// preloaded and warmed up.
type instance interface {
	// measure runs the workload's load for d and stores the window's
	// metrics in rep. With tr non-nil every op counts its body runs, the
	// sampled ops record spans into tr's buffers, and the per-layer
	// metrics are stored too.
	measure(d time.Duration, tr *tracer, rep *report) error
	// finish stops the load, runs the output checks into rep and
	// releases everything; spans it times go to tr when non-nil.
	finish(rep *report, tr *tracer)
	// close releases everything without checking (discarded set-ups).
	close()
}

// setupFunc opens, preloads and warms up one instance.
type setupFunc func() (instance, error)

// workloadDef is one named workload. prepare generates the seed's
// inputs (outside set-up time) and returns the set-up to repeat.
type workloadDef struct {
	name    string
	why     string
	prepare func(c *config) (setupFunc, error)
}

var workloads = []workloadDef{
	{"like", "the paper's LIKE mix on an embedded DB: the only workload where the classifier splits keys and the stash fires", prepareLike},
	{"wire-cluster", "get/add/xfer over the wire to a 2-shard cluster: the only workload crossing server, router and commit fences", prepareWire},
	{"durable-follow", "closed-loop writes group-committed to a redo log, a log-tailing replica and forced checkpoints: the only workload touching wal, checkpoint and repl", prepareDurable},
}

// config is one run's settings plus the facts recorded with its result.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	workdir  string
	nproc    int
	setups   int // times an untraced run sets up; setup_s is their median
	facts    map[string]any
}

// setupsPerRun is how many times an untraced run sets its workload up.
const setupsPerRun = 3

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: like, wire-cluster or durable-follow")
		seed    = flag.Uint64("seed", 1, "input seed; the same seed generates the same operation sequence")
		seconds = flag.Int("seconds", 10, "length of the measured window in seconds")
		trace   = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics")
		workdir = flag.String("workdir", ".bench_build/perfbench-run", "directory for durability files and span output")
	)
	flag.Parse()
	c := &config{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1,
		workdir: *workdir, nproc: runtime.NumCPU(), setups: setupsPerRun, facts: map[string]any{}}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	rep, err := run(c, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !rep.correct() {
		for _, ch := range rep.checks {
			if ch.err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: check %s failed: %v\n", ch.name, ch.err)
			}
		}
		os.Exit(1)
	}
}

// run executes one benchmark run and prints its report, ending with the
// JSON result line.
func run(c *config, out io.Writer) (*report, error) {
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == c.workload {
			def = &workloads[i]
		}
	}
	if def == nil {
		return nil, fmt.Errorf("unknown workload %q", c.workload)
	}
	runtime.GOMAXPROCS(c.nproc)
	if err := os.MkdirAll(c.workdir, 0o755); err != nil {
		return nil, err
	}
	recordHostFacts(c)
	setup, err := def.prepare(c)
	if err != nil {
		return nil, fmt.Errorf("%s: inputs: %w", c.workload, err)
	}
	setups := c.setups
	if c.trace {
		setups = 1
	}
	c.facts["setups"] = setups
	rep := newReport()
	var inst instance
	var times []float64
	for i := 0; i < setups; i++ {
		runtime.GC()
		t0 := now()
		in, err := setup()
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", c.workload, err)
		}
		times = append(times, float64(now()-t0)/1e9)
		if i < setups-1 {
			in.close()
			continue
		}
		inst = in
	}
	runtime.GC()
	settleDisk()
	rep.set("setup_s", median(times))
	rep.samples["setup_s"] = int64(len(times))

	window := time.Duration(c.seconds) * time.Second
	var tr *tracer
	if !c.trace {
		err = inst.measure(window, nil, rep)
	} else {
		tr, err = measureTraced(c, inst, window, rep)
	}
	if err != nil {
		inst.close()
		return nil, fmt.Errorf("%s: measure: %w", c.workload, err)
	}
	inst.finish(rep, tr)
	if tr != nil {
		if err := reportSpans(c, tr, rep); err != nil {
			return nil, err
		}
	}

	facts, _ := json.Marshal(c.facts)
	fmt.Fprintf(out, "config %s\n", facts)
	if c.trace {
		rep.print(out, perLayer)
		fmt.Fprintln(out, rep.resultLine(perLayer))
	} else {
		rep.print(out, endToEnd, extraEndToEnd)
		fmt.Fprintln(out, rep.resultLine(endToEnd))
	}
	return rep, nil
}

// measureTraced splits the window: an untraced half, then a traced half
// on the same instance. Per-layer metrics come from the traced half; the
// throughput difference between the halves is trace.overhead_share.
func measureTraced(c *config, inst instance, window time.Duration, rep *report) (*tracer, error) {
	half := window / 2
	if half < time.Second {
		half = time.Second
	}
	plain := newReport()
	if err := inst.measure(half, nil, plain); err != nil {
		return nil, err
	}
	base := plain.values["txn_per_s"]
	// Twice the untraced half's ops, so a traced half that runs faster
	// (the host's load changed) still fits the buffers.
	tr := newTracer(c.nproc, 2*base*half.Seconds(), 5)
	c.facts["trace_sample_every"] = tr.every
	if err := inst.measure(half, tr, rep); err != nil {
		return nil, err
	}
	rep.set("trace.overhead_share", 1-ratio(rep.values["txn_per_s"], base))
	return tr, nil
}

// reportSpans writes the traced run's spans out and notes a per-name
// summary of their durations and self times.
func reportSpans(c *config, tr *tracer, rep *report) error {
	rep.notes = append(rep.notes, summarizeSpans(tr.bufs)...)
	path := filepath.Join(c.workdir, fmt.Sprintf("trace-%s-seed%d.csv", c.workload, c.seed))
	n, err := writeSpans(path, tr.bufs)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	var dropped int64
	for _, b := range tr.bufs {
		dropped += b.dropped
	}
	rep.notes = append(rep.notes, fmt.Sprintf("trace %s spans=%d dropped=%d", path, n, dropped))
	return nil
}

// genSeeds derives one independent stream seed per generator from seed.
func genSeeds(seed uint64, n int) []uint64 {
	sm := rng.NewSplitMix64(seed)
	out := make([]uint64, n)
	for i := range out {
		out[i] = sm.Next()
	}
	return out
}

// preload runs fill(tx, i) for i in [0, n) in transactions of batch keys.
func preload(n, batch int, exec func(doppel.TxFunc) error, fill func(tx doppel.Tx, i int) error) error {
	for lo := 0; lo < n; lo += batch {
		hi := min(lo+batch, n)
		if err := exec(func(tx doppel.Tx) error {
			for i := lo; i < hi; i++ {
				if err := fill(tx, i); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return fmt.Errorf("preload keys %d-%d: %w", lo, hi, err)
		}
	}
	return nil
}

// sumInts returns the sum of the integer records key(0..n-1), read in
// transactions of 1000 keys. A body may run more than once, so each run
// restarts its partial sum.
func sumInts(n int, exec func(doppel.TxFunc) error, key func(int) string) (int64, error) {
	var total int64
	for lo := 0; lo < n; lo += 1000 {
		hi := min(lo+1000, n)
		var part int64
		if err := exec(func(tx doppel.Tx) error {
			part = 0
			for i := lo; i < hi; i++ {
				v, err := tx.GetInt(key(i))
				if err != nil {
					return err
				}
				part += v
			}
			return nil
		}); err != nil {
			return 0, fmt.Errorf("read keys %d-%d: %w", lo, hi, err)
		}
		total += part
	}
	return total, nil
}

// recordHostFacts stores the host and build facts every result carries.
func recordHostFacts(c *config) {
	f := c.facts
	f["workload"] = c.workload
	f["seed"] = c.seed
	f["seconds"] = c.seconds
	f["trace"] = c.trace
	f["nproc"] = runtime.NumCPU()
	f["gomaxprocs"] = runtime.GOMAXPROCS(0)
	f["go"] = runtime.Version()
	f["goos_goarch"] = runtime.GOOS + "/" + runtime.GOARCH
	f["git_revision"] = gitRevision()
	f["source_sha256"] = sourceDigest(".")
}

// gitRevision returns the VCS revision stamped into the binary, or
// "unknown" when it was built outside a git work tree.
func gitRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the program's Go sources and go.mod under root
// (excluding this benchmark and build output), identifying the code
// measured even in a checkout that is not a git repository.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
