package main

import (
	"fmt"
	"sync"
	"time"

	"doppel"
	"doppel/internal/core"
	"doppel/internal/rng"
	"doppel/internal/workload"
)

// The like workload is the paper's LIKE benchmark (§7, §8.5) on an
// embedded DB, with workload.Like's key distributions and draw order.
const (
	likeUsers     = 100_000
	likePages     = 100_000
	likeAlpha     = 1.4
	likeWriteFrac = 0.5
	// likeWindow is each generator's fixed number of outstanding
	// ExecAsync transactions: its closed-loop users. It is large because
	// a stashed read holds its user for up to a phase (20ms).
	likeWindow = 256
	// likeWarmupOps spans several 20ms phases, so the classifier has
	// split the hot pages before the window opens.
	likeWarmupOps = 200_000
	// likeSplitFraction replaces the classifier's default split
	// threshold (2% of a phase's attempts conflicting on one key). With
	// one worker per CPU on a 2-CPU host only about 1% of attempts
	// conflict at all, so the default never splits a key and the
	// workload would bypass split phases and the stash entirely.
	likeSplitFraction = 0.005
)

// likeOp is one generated LIKE transaction.
type likeOp struct {
	user, page int32
	write      bool
}

// likeStream is one generator's operation sequence: the draws
// workload.Like.Next makes (uniform user, Zipf page, write coin), kept
// as data so the sequence can be compared and the bodies replayed.
type likeStream struct {
	r    *rng.Rand
	zipf *workload.Zipf
}

func (s *likeStream) next() likeOp {
	user := s.r.Intn(likeUsers)
	page := s.zipf.Sample(s.r)
	return likeOp{user: int32(user), page: int32(page), write: s.r.Bool(likeWriteFrac)}
}

// likeInputs is what the seed generates, shared by every set-up.
type likeInputs struct {
	c         *config
	users     *workload.KeySpace
	pages     *workload.KeySpace
	pageBytes [][]byte // the value a like stores on the user: the page key
	zipf      *workload.Zipf
}

func newLikeStreams(seed uint64, gens int, zipf *workload.Zipf) []*likeStream {
	var out []*likeStream
	for _, s := range genSeeds(seed, gens) {
		out = append(out, &likeStream{r: rng.New(s), zipf: zipf})
	}
	return out
}

func prepareLike(c *config) (setupFunc, error) {
	in := &likeInputs{
		c:     c,
		users: workload.NewKeySpace('u', likeUsers),
		pages: workload.NewKeySpace('p', likePages),
		zipf:  workload.NewZipf(likePages, likeAlpha),
	}
	in.pageBytes = make([][]byte, likePages)
	for i := range in.pageBytes {
		in.pageBytes[i] = []byte(in.pages.Key(i))
	}
	f := c.facts
	f["workers"] = c.nproc
	f["phase_ms"] = 20
	f["users"], f["pages"], f["page_zipf_alpha"] = likeUsers, likePages, likeAlpha
	f["write_frac"] = likeWriteFrac
	f["split_fraction"] = likeSplitFraction
	f["loop"] = "closed"
	f["generators"] = c.nproc
	f["window_per_generator"] = likeWindow
	f["warmup_ops"] = likeWarmupOps
	return func() (instance, error) { return openLike(in) }, nil
}

type likeInst struct {
	in   *likeInputs
	db   *doppel.DB
	gens []*likeGen
}

// likeGen is one generator goroutine's state: its stream, its window of
// slots and what it measured.
type likeGen struct {
	idx    int
	inst   *likeInst
	stream *likeStream
	slots  []*likeSlot
	done   chan *likeSlot // capacity likeWindow: a completion never blocks a worker
	seq    uint64

	// lifetime, for the output check
	ackedWrites, failedWrites int64

	// per measured window
	read, write *latency
	attempted   int64
	completed   int64
	failed      int64
	bodyRuns    int64
	buf         *spanBuf
}

// likeSlot is one closed-loop user: one outstanding transaction at a
// time. Its body and completion funcs are bound once, so the generator
// allocates nothing per transaction.
type likeSlot struct {
	g      *likeGen
	op     likeOp
	start  int64
	end    int64
	err    error
	traced bool
	runs   bodyRuns
	body   func(doppel.Tx) error
	cb     func(error)
}

func openLike(in *likeInputs) (instance, error) {
	db := doppel.Open(doppel.Options{Workers: in.c.nproc, Engine: core.Config{SplitFraction: likeSplitFraction}})
	inst := &likeInst{in: in, db: db}
	if err := preload(in.users.N(), 1000, db.Exec, func(tx doppel.Tx, i int) error {
		if err := tx.PutBytes(in.users.Key(i), nil); err != nil {
			return err
		}
		return tx.PutInt(in.pages.Key(i), 0)
	}); err != nil {
		db.Close()
		return nil, err
	}
	for i, st := range newLikeStreams(in.c.seed, in.c.nproc, in.zipf) {
		g := &likeGen{idx: i, inst: inst, stream: st, done: make(chan *likeSlot, likeWindow)}
		for j := 0; j < likeWindow; j++ {
			s := &likeSlot{g: g}
			s.body, s.cb = s.run, s.complete
			g.slots = append(g.slots, s)
		}
		inst.gens = append(inst.gens, g)
	}
	inst.load(-1, likeWarmupOps/int64(len(inst.gens)), nil)
	return inst, nil
}

func (s *likeSlot) run(tx doppel.Tx) error {
	if !s.traced {
		return s.exec(tx)
	}
	i := s.runs.enter(tx)
	err := s.exec(tx)
	s.runs.exit(i, err)
	return err
}

func (s *likeSlot) exec(tx doppel.Tx) error {
	in := s.g.inst.in
	user, page := in.users.Key(int(s.op.user)), in.pages.Key(int(s.op.page))
	if s.op.write {
		if err := tx.PutBytes(user, in.pageBytes[s.op.page]); err != nil {
			return err
		}
		return tx.Add(page, 1)
	}
	if _, err := tx.GetBytes(user); err != nil {
		return err
	}
	_, err := tx.GetInt(page)
	return err
}

func (s *likeSlot) complete(err error) {
	s.end, s.err = now(), err
	s.g.done <- s
}

// load runs every generator's closed loop until deadline (monotonic ns;
// -1 for none) or until each has issued maxOps (0 for no limit), then
// waits for their outstanding transactions.
func (inst *likeInst) load(deadline, maxOps int64, tr *tracer) {
	var wg sync.WaitGroup
	for _, g := range inst.gens {
		g.read, g.write = newLatency(now(), deadline), newLatency(now(), deadline)
		g.attempted, g.completed, g.failed, g.bodyRuns = 0, 0, 0, 0
		g.buf = nil
		if tr != nil {
			g.buf = tr.bufs[g.idx]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.loop(deadline, maxOps, tr)
		}()
	}
	wg.Wait()
}

func (g *likeGen) loop(deadline, maxOps int64, tr *tracer) {
	open := func() bool {
		return (deadline < 0 || now() < deadline) && (maxOps == 0 || g.attempted < maxOps)
	}
	issue := func(s *likeSlot) {
		s.op = g.stream.next()
		g.seq++
		s.traced = tr != nil
		if s.traced {
			s.runs.reset(g.seq%uint64(tr.every) == 0)
		}
		g.attempted++
		s.start = now()
		g.inst.db.ExecAsync(s.body, s.cb)
	}
	inflight := 0
	for _, s := range g.slots {
		if !open() {
			break
		}
		issue(s)
		inflight++
	}
	for inflight > 0 {
		s := <-g.done
		inflight--
		g.record(s, deadline)
		if open() {
			issue(s)
			inflight++
		}
	}
}

func (g *likeGen) record(s *likeSlot, deadline int64) {
	if s.err != nil {
		g.failed++
		if s.op.write {
			g.failedWrites++
		}
		return
	}
	if s.op.write {
		g.ackedWrites++
	}
	if s.traced {
		g.bodyRuns += int64(s.runs.n.Load())
		if s.runs.sampled.Load() {
			class := classRead
			if s.op.write {
				class = classWrite
			}
			id := uint64(g.idx)<<48 | g.seq
			if p := g.buf.add(span{id: id, start: s.start, end: s.end, parent: -1, kind: spanOp, flags: class}); p >= 0 {
				s.runs.appendTo(g.buf, id, p)
			}
		}
	}
	if deadline >= 0 && s.end > deadline {
		return
	}
	g.completed++
	if s.op.write {
		g.write.record(s.end, s.end-s.start)
	} else {
		g.read.record(s.end, s.end-s.start)
	}
}

func (inst *likeInst) measure(d time.Duration, tr *tracer, rep *report) error {
	before := inst.db.Stats()
	var splitKeys, splitSamples float64
	tick := 0
	w := startWindow()
	deadline := w.start + int64(d)
	loadDone := make(chan struct{})
	go func() {
		inst.load(deadline, 0, tr)
		close(loadDone)
	}()
	w.waitUntil(deadline, func() {
		if tick++; tr != nil && tick%5 == 0 {
			// DB.Stats reads the workers' counters without synchronizing
			// with them, so it is called only while no load runs; the
			// split set is read from the engine, under its lock.
			splitKeys += float64(len(inst.db.Internal().SplitKeys()))
			splitSamples++
		}
	})
	secs, allocs := w.end()
	<-loadDone
	after := inst.db.Stats()

	read, write := newLatency(w.start, deadline), newLatency(w.start, deadline)
	var completed, bodyRuns int64
	for _, g := range inst.gens {
		read.merge(g.read)
		write.merge(g.write)
		completed += g.completed
		bodyRuns += g.bodyRuns
		rep.attempted += g.attempted
		rep.failed += g.failed
	}
	rep.set("txn_per_s", median(partRates(read, write)))
	rep.setLatency("read", read)
	rep.setLatency("write", write)
	rep.set("allocs_per_txn", ratio(float64(allocs), float64(completed)))
	rep.set("heap_peak_mb", float64(w.heapPeak)/(1<<20))
	rep.set("failed_share", ratio(float64(rep.failed), float64(rep.attempted)))
	rep.notes = append(rep.notes, fmt.Sprintf("split phases in the window: %d phase changes, %d transactions stashed",
		after.PhaseChanges-before.PhaseChanges, after.Stashed-before.Stashed))
	if tr == nil {
		return nil
	}

	queue, ack, body, stashWait := newHist(), newHist(), newHist(), newHist()
	var bufs []*spanBuf
	for _, g := range inst.gens {
		bufs = append(bufs, g.buf)
	}
	forEachOp(bufs, func(g *opGroup) {
		queue.record(g.firstEntry() - g.op.start)
		ack.record(g.op.end - g.lastExit())
		for _, b := range g.bodies {
			body.record(b.end - b.start)
		}
		if g.has(flagStash) {
			stashWait.record(g.lastEntry() - g.firstEntry())
		}
	})
	zeroLayers(rep)
	rep.setLatency("doppel.queue_wait", queue)
	rep.setLatency("doppel.ack_wait", ack)
	rep.set("core.body_p50_us", body.quantile(0.5)/1e3)
	rep.samples["core.body_p50_us"] = body.n
	rep.set("core.body_runs_per_txn", ratio(float64(bodyRuns), float64(completed)))
	rep.set("core.abort_share", ratio(float64(after.Aborted-before.Aborted), float64(bodyRuns)))
	rep.set("core.stash_share", ratio(float64(after.Stashed-before.Stashed), float64(completed)))
	rep.setQuantiles("core.stash_wait", stashWait, 1e6, "ms")
	rep.set("core.phase_changes_per_s", float64(after.PhaseChanges-before.PhaseChanges)/secs)
	rep.set("core.split_keys_mean", ratio(splitKeys, splitSamples))
	return nil
}

func (inst *likeInst) finish(rep *report, _ *tracer) {
	pageSum, err := sumInts(likePages, inst.db.Exec, inst.in.pages.Key)
	st := inst.db.Stats()
	inst.db.Close()
	if err != nil {
		rep.checks = append(rep.checks, checkResult{"like.read_back", err})
		return
	}
	o := likeOutcome{pageSum: pageSum, mergeFailures: st.MergeFailures, stashDropped: st.StashDropped}
	for _, g := range inst.gens {
		o.ackedWrites += g.ackedWrites
		o.failedWrites += g.failedWrites
	}
	rep.checks = append(rep.checks, checkLike(o)...)
}

func (inst *likeInst) close() { inst.db.Close() }
