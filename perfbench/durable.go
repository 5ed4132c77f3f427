package main

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"doppel"
	"doppel/internal/rng"
	"doppel/internal/workload"
)

// The durable-follow workload: an embedded DB group-committing its redo
// log to a fresh directory, a Replica tailing that log in the same
// process, and checkpoints the benchmark forces in the middle of every
// part of the window. One issuer keeps a fixed window of ExecAsync
// writes outstanding and one collector takes their acknowledgements.
//
// Commits are acknowledged from memory (SyncCommit off, the default),
// and the loop is closed. With SyncCommit on, or with an open loop, on
// a VM with a shared disk every latency was the disk's: write p50 moved
// between 0.2ms and 4.5ms across identical runs (README.md).
const (
	durKeys         = 100_000
	durProfileBytes = 100
	// durWindow is the closed loop's depth: writes outstanding at once.
	durWindow = 128
	// durReadEvery: one acknowledged write in this many is read back
	// through the replica.
	durReadEvery = 128
	durWarmupOps = 50_000
	// durVisibleEvery: in the traced window, every this many
	// acknowledgements the collector checks whether the replica serves
	// the oldest sampled write yet.
	durVisibleEvery = 16
)

// durOp is one generated write: its key and its sequence number, which
// the profile it writes records.
type durOp struct {
	key int32
	seq int64
}

// durStream is the issuer's operation sequence.
type durStream struct {
	r   *rng.Rand
	seq int64
}

func newDurStream(seed uint64) *durStream {
	return &durStream{r: rng.New(genSeeds(seed, 1)[0])}
}

func (s *durStream) next() durOp {
	op := durOp{key: int32(s.r.Intn(durKeys)), seq: s.seq}
	s.seq++
	return op
}

// profile renders the ~100-byte profile op writes: "<key> <seq>" padded.
// seq -1 marks the preloaded profile.
func profile(key int, seq int64) []byte {
	b := make([]byte, 0, durProfileBytes)
	b = strconv.AppendInt(b, int64(key), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, seq, 10)
	b = append(b, ' ')
	for len(b) < durProfileBytes {
		b = append(b, 'x')
	}
	return b
}

// parseProfile inverts profile.
func parseProfile(b []byte) (key int, seq int64, ok bool) {
	var k, s int64
	if n, err := fmt.Sscanf(string(b), "%d %d ", &k, &s); n != 2 || err != nil {
		return 0, 0, false
	}
	return int(k), s, true
}

type durInputs struct {
	c    *config
	keys *workload.KeySpace // counters
	prof *workload.KeySpace // profiles
}

func prepareDurable(c *config) (setupFunc, error) {
	in := &durInputs{c: c, keys: workload.NewKeySpace('d', durKeys),
		prof: workload.NewKeySpace('q', durKeys)}
	f := c.facts
	f["workers"] = c.nproc
	f["phase_ms"] = 20
	f["keys"] = durKeys
	f["profile_bytes"] = durProfileBytes
	f["sync_commit"] = false
	f["loop"] = "closed"
	f["issuers"] = 1
	f["window"] = durWindow
	f["replica_read_every"] = durReadEvery
	f["follower_poll_ms"] = 1
	f["warmup_ops"] = durWarmupOps
	return func() (instance, error) { return openDurable(in) }, nil
}

type durInst struct {
	in      *durInputs
	dir     string
	db      *doppel.DB
	replica *doppel.Replica
	stream  *durStream
	free    chan *durSlot // every slot not in flight
	done    chan *durSlot // capacity durWindow: a completion never blocks a worker
	model   *durableModel
	// lsnBase is DurableLSN - AppliedLSN with the replica caught up: the
	// records before the bootstrap snapshot, which the replica never
	// applies one by one.
	lsnBase int64
	// readErr is the first failed replica read.
	readErr error
	// pending are sampled writes not yet seen on the replica (traced
	// window only), oldest first.
	pending []visCheck

	// per measured window
	write, read                            *latency
	visible, queue, ack                    *hist
	attempted, completed, failed, bodyRuns int64
	buf                                    *spanBuf
}

// durSlot is one outstanding write.
type durSlot struct {
	inst    *durInst
	op      durOp
	sent    int64 // when ExecAsync was called
	ack     int64
	err     error
	traced  bool
	profile []byte
	runs    bodyRuns
	body    func(doppel.Tx) error
	cb      func(error)
}

func openDurable(in *durInputs) (instance, error) {
	inst := &durInst{in: in, model: newDurableModel(durKeys),
		free: make(chan *durSlot, durWindow), done: make(chan *durSlot, durWindow)}
	if err := inst.open(); err != nil {
		inst.close()
		return nil, err
	}
	return inst, nil
}

func (inst *durInst) open() error {
	in := inst.in
	var err error
	if inst.dir, err = os.MkdirTemp(in.c.workdir, "durable-"); err != nil {
		return err
	}
	inst.db, err = doppel.OpenErr(doppel.Options{Workers: in.c.nproc, RedoLog: inst.dir})
	if err != nil {
		return err
	}
	if err := preload(durKeys, 1000, inst.db.Exec, func(tx doppel.Tx, i int) error {
		if err := tx.PutInt(in.keys.Key(i), 0); err != nil {
			return err
		}
		return tx.PutBytes(in.prof.Key(i), profile(i, -1))
	}); err != nil {
		return err
	}
	if err := inst.db.Checkpoint(); err != nil {
		return err
	}
	if inst.replica, err = doppel.OpenFollower(inst.dir, doppel.FollowerOptions{}); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := inst.replica.WaitPosition(ctx, inst.db.LogPosition()); err != nil {
		return err
	}
	inst.lsnBase = int64(inst.db.DurableLSN()) - int64(inst.replica.AppliedLSN())
	inst.stream = newDurStream(in.c.seed)
	for i := 0; i < durWindow; i++ {
		s := &durSlot{inst: inst}
		s.body, s.cb = s.run, s.complete
		inst.free <- s
	}
	inst.load(-1, durWarmupOps, nil)
	return nil
}

func (s *durSlot) run(tx doppel.Tx) error {
	if !s.traced {
		return s.exec(tx)
	}
	i := s.runs.enter(tx)
	err := s.exec(tx)
	s.runs.exit(i, err)
	return err
}

func (s *durSlot) exec(tx doppel.Tx) error {
	in := s.inst.in
	if err := tx.Add(in.keys.Key(int(s.op.key)), 1); err != nil {
		return err
	}
	return tx.PutBytes(in.prof.Key(int(s.op.key)), s.profile)
}

func (s *durSlot) complete(err error) {
	s.ack, s.err = now(), err
	s.inst.done <- s
}

// load keeps durWindow writes outstanding until deadline (monotonic
// ns; -1 for none) or maxOps writes (0 for no limit). The issuer and
// the collector that handles acknowledgements are the workload's two
// generator goroutines.
func (inst *durInst) load(deadline, maxOps int64, tr *tracer) {
	inst.write, inst.read = newLatency(now(), deadline), newLatency(now(), deadline)
	for _, h := range []**hist{&inst.visible, &inst.queue, &inst.ack} {
		*h = newHist()
	}
	inst.attempted, inst.completed, inst.failed, inst.bodyRuns = 0, 0, 0, 0
	inst.buf, inst.pending = nil, nil
	if tr != nil {
		inst.buf = tr.bufs[0]
	}
	issued := make(chan int64, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		inst.collect(issued, deadline, tr)
	}()
	var n int64
	for ; maxOps == 0 || n < maxOps; n++ {
		s := <-inst.free
		if deadline >= 0 && now() >= deadline {
			inst.free <- s
			break
		}
		s.op = inst.stream.next()
		s.profile = profile(int(s.op.key), s.op.seq)
		s.traced = tr != nil
		if s.traced {
			s.runs.reset(s.op.seq%tr.every == 0)
		}
		s.sent = now()
		inst.db.ExecAsync(s.body, s.cb)
	}
	inst.attempted = n
	issued <- n
	wg.Wait()
}

// collect handles acknowledgements until all issued writes are back.
func (inst *durInst) collect(issued <-chan int64, deadline int64, tr *tracer) {
	total, got := int64(-1), int64(0)
	for total < 0 || got < total {
		select {
		case total = <-issued:
			continue
		case s := <-inst.done:
			got++
			inst.record(s, deadline, tr)
			inst.free <- s
		}
	}
}

func (inst *durInst) record(s *durSlot, deadline int64, tr *tracer) {
	k := int(s.op.key)
	m := inst.model
	for int64(len(m.seqAcked)) <= s.op.seq {
		m.seqAcked = append(m.seqAcked, false)
	}
	if s.err != nil {
		inst.failed++
		m.failed[k]++
		return
	}
	m.acked[k]++
	m.seqAcked[s.op.seq] = true
	var p int32 = -1
	if s.traced {
		inst.bodyRuns += int64(s.runs.n.Load())
		if s.runs.sampled.Load() {
			id := uint64(s.op.seq)
			if p = inst.buf.add(span{id: id, start: s.sent, end: s.ack, parent: -1, kind: spanOp, flags: classWrite}); p >= 0 {
				s.runs.appendTo(inst.buf, id, p)
			}
			n := min(int(s.runs.n.Load()), maxRuns)
			if n > 0 {
				inst.queue.record(s.runs.runs[0].start.Load() - s.sent)
				inst.ack.record(s.ack - s.runs.runs[n-1].end.Load())
			}
		}
	}
	inDeadline := deadline < 0 || s.ack <= deadline
	if inDeadline {
		inst.completed++
		inst.write.record(s.ack, s.ack-s.sent)
	}
	if tr != nil && s.op.seq%durVisibleEvery == 0 {
		inst.checkVisible()
	}
	if s.op.seq%durReadEvery != 0 {
		return
	}
	// The timed read-only transaction: read the key back on the replica.
	t0 := now()
	_, err := inst.readReplica(k)
	if t1 := now(); inDeadline {
		inst.read.record(t1, t1-t0)
	}
	if err != nil && inst.readErr == nil {
		inst.readErr = err
	}
	if tr != nil {
		inst.pending = append(inst.pending, visCheck{key: k, want: m.acked[k], id: uint64(s.op.seq), ack: s.ack, parent: p})
	}
}

// readReplica returns key k's counter as the replica serves it.
func (inst *durInst) readReplica(k int) (int64, error) {
	var counter int64
	_, err := inst.replica.View(func(tx doppel.Tx) error {
		var err error
		counter, err = tx.GetInt(inst.in.keys.Key(k))
		return err
	})
	return counter, err
}

// visCheck is an acknowledged write the collector waits to see served
// by the replica.
type visCheck struct {
	key    int
	want   int64 // acknowledged adds to key, this write's included
	id     uint64
	ack    int64
	parent int32
}

// checkVisible reads the oldest pending write back from the replica
// and, once the replica serves it, records how long after its
// acknowledgement that was. It reads once per call, so it never blocks
// the collector.
func (inst *durInst) checkVisible() {
	if len(inst.pending) == 0 {
		return
	}
	v := inst.pending[0]
	counter, err := inst.readReplica(v.key)
	t := now()
	switch {
	case err != nil:
	case counter >= v.want:
		inst.visible.record(t - v.ack)
		if v.parent >= 0 {
			inst.buf.add(span{id: v.id, start: v.ack, end: t, parent: v.parent, kind: spanReplWait})
		}
	case t-v.ack > int64(10*time.Second):
		err = fmt.Errorf("key %d: replica counter %d 10s after the write was acknowledged, want >= %d", v.key, counter, v.want)
	default:
		return
	}
	if err != nil && inst.readErr == nil {
		inst.readErr = err
	}
	inst.pending = inst.pending[1:]
}

// ckptRun is one timed DB.Checkpoint call and the stats it left.
type ckptRun struct {
	start, end int64
	stats      doppel.CheckpointStats
	err        error
}

func (inst *durInst) measure(d time.Duration, tr *tracer, rep *report) error {
	before := inst.db.Stats()
	rbefore := inst.replica.Stats()
	lsn0 := inst.db.DurableLSN()
	w := startWindow()
	deadline := w.start + int64(d)

	// One checkpoint in the middle of every part of the window, so each
	// part's latency quantiles see the same checkpoint cycle.
	ckpts := make(chan []ckptRun, 1)
	go func() {
		var runs []ckptRun
		part := int64(d) / subWindows
		for at := w.start + part/2; at < deadline; at += part {
			time.Sleep(time.Duration(at - now()))
			r := ckptRun{start: now()}
			r.err = inst.db.Checkpoint()
			r.end = now()
			r.stats = inst.db.CheckpointStats()
			runs = append(runs, r)
		}
		ckpts <- runs
	}()
	loadDone := make(chan struct{})
	go func() {
		inst.load(deadline, 0, tr)
		close(loadDone)
	}()
	var lagSum, lagMax, lagN float64
	var walBytes int64
	lastPos := inst.db.LogPosition()
	w.waitUntil(deadline, func() {
		if tr == nil {
			return
		}
		lag := float64(int64(inst.db.DurableLSN()) - int64(inst.replica.AppliedLSN()) - inst.lsnBase)
		lagSum += lag
		lagMax = max(lagMax, lag)
		lagN++
		pos := inst.db.LogPosition()
		if pos.Seq == lastPos.Seq {
			walBytes += pos.Offset - lastPos.Offset
		} else {
			walBytes += pos.Offset
		}
		lastPos = pos
	})
	secs, allocs := w.end()
	<-loadDone
	runs := <-ckpts
	after := inst.db.Stats()
	rafter := inst.replica.Stats()

	for _, r := range runs {
		if r.err != nil {
			return fmt.Errorf("checkpoint: %w", r.err)
		}
	}
	if inst.readErr != nil {
		return fmt.Errorf("replica read: %w", inst.readErr)
	}
	rep.attempted, rep.failed = inst.attempted, inst.failed
	rep.set("txn_per_s", median(partRates(inst.write)))
	rep.setLatency("read", inst.read)
	rep.setLatency("write", inst.write)
	rep.set("allocs_per_txn", ratio(float64(allocs), float64(inst.completed)))
	rep.set("heap_peak_mb", float64(w.heapPeak)/(1<<20))
	rep.set("failed_share", ratio(float64(rep.failed), float64(rep.attempted)))
	rep.notes = append(rep.notes, fmt.Sprintf("checkpoints in the window: %d", len(runs)))
	if tr == nil {
		return nil
	}

	total, walk, snap := newHist(), []float64{}, []float64{}
	var barrierMax time.Duration
	for _, r := range runs {
		total.record(r.end - r.start)
		walk = append(walk, r.stats.LastWalk.Seconds()*1e3)
		snap = append(snap, float64(r.stats.LastBytes)/(1<<20))
		barrierMax = max(barrierMax, r.stats.LastBarrier)
		inst.buf.add(span{start: r.start, end: r.end, parent: -1, kind: spanCheckpoint})
	}
	zeroLayers(rep)
	rep.setLatency("doppel.queue_wait", inst.queue)
	rep.setLatency("doppel.ack_wait", inst.ack)
	rep.set("core.body_runs_per_txn", ratio(float64(inst.bodyRuns), float64(inst.completed)))
	rep.set("core.abort_share", ratio(float64(after.Aborted-before.Aborted), float64(inst.bodyRuns)))
	rep.set("core.phase_changes_per_s", float64(after.PhaseChanges-before.PhaseChanges)/secs)
	rep.set("wal.records_per_txn", ratio(float64(inst.db.DurableLSN()-lsn0), float64(inst.completed)))
	rep.set("wal.bytes_per_txn", ratio(float64(walBytes), float64(inst.completed)))
	rep.set("checkpoint.total_p50_ms", total.quantile(0.5)/1e6)
	rep.samples["checkpoint.total_p50_ms"] = total.n
	rep.set("checkpoint.barrier_max_us", float64(barrierMax.Nanoseconds())/1e3)
	rep.set("checkpoint.walk_p50_ms", median(walk))
	rep.set("checkpoint.snapshot_mb", median(snap))
	rep.set("repl.visible_mean_us", inst.visible.mean()/1e3)
	rep.samples["repl.visible_mean_us"] = inst.visible.n
	rep.set("repl.visible_p99_us", inst.visible.quantile(0.99)/1e3)
	rep.samples["repl.visible_p99_us"] = inst.visible.n
	rep.set("repl.lag_records_mean", ratio(lagSum, lagN))
	rep.set("repl.lag_records_max", lagMax)
	rep.set("repl.records_per_poll", ratio(float64(rafter.Records-rbefore.Records), float64(rafter.Polls-rbefore.Polls)))
	rep.set("repl.rebootstraps", float64(rafter.Rebootstraps-rbefore.Rebootstraps))
	return nil
}

// readRows reads every key's counter and profile in batches through exec.
func readRows(exec func(doppel.TxFunc) error, keys, prof *workload.KeySpace) ([]durableRow, error) {
	rows := make([]durableRow, keys.N())
	for lo := 0; lo < keys.N(); lo += 1000 {
		hi := min(lo+1000, keys.N())
		if err := exec(func(tx doppel.Tx) error {
			for i := lo; i < hi; i++ {
				n, err := tx.GetInt(keys.Key(i))
				if err != nil {
					return err
				}
				p, err := tx.GetBytes(prof.Key(i))
				if err != nil {
					return err
				}
				rows[i] = durableRow{counter: n, profile: p}
			}
			return nil
		}); err != nil {
			return nil, fmt.Errorf("read keys %d-%d: %w", lo, hi, err)
		}
	}
	return rows, nil
}

func (inst *durInst) finish(rep *report, tr *tracer) {
	defer inst.close()
	fail := func(name string, err error) {
		rep.checks = append(rep.checks, checkResult{name, err})
	}
	inst.db.Close()
	final := inst.db.LogPosition()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	err := inst.replica.WaitPosition(ctx, final)
	cancel()
	if err != nil {
		fail("durable.replica_catch_up", err)
		return
	}
	replica, err := readRows(func(fn doppel.TxFunc) error { _, err := inst.replica.View(fn); return err }, inst.in.keys, inst.in.prof)
	if err != nil {
		fail("durable.replica_read", err)
		return
	}
	tailErr := inst.replica.Stats().TailError
	inst.replica.Close()

	t0 := now()
	rdb, err := doppel.Recover(inst.dir, doppel.Options{Workers: inst.in.c.nproc})
	if err != nil {
		fail("durable.recover", err)
		return
	}
	t1 := now()
	rep.set("checkpoint.recover_ms", float64(t1-t0)/1e6)
	if tr != nil {
		tr.bufs[0].add(span{start: t0, end: t1, parent: -1, kind: spanRecover})
	}
	recovered, err := readRows(rdb.Exec, inst.in.keys, inst.in.prof)
	rdb.Close()
	if err != nil {
		fail("durable.recover_read", err)
		return
	}
	rep.checks = append(rep.checks, checkDurable(inst.model, recovered, replica, tailErr)...)
}

func (inst *durInst) close() {
	if inst.db != nil {
		inst.db.Close()
	}
	if inst.replica != nil {
		inst.replica.Close()
	}
	if inst.dir != "" {
		_ = os.RemoveAll(inst.dir)
	}
}
