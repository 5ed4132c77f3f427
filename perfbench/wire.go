package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"doppel"
	"doppel/internal/rng"
	"doppel/internal/server"
	"doppel/internal/workload"
)

// The wire-cluster workload: internal/server on loopback, in process,
// fronting a 2-shard doppel.Cluster. Uniform keys over a keyspace ten
// times like's, so lookups leave the CPU caches and no key gets hot
// enough to split.
const (
	wireKeys   = 1_000_000
	wireShards = 2
	wireGet    = 0.5 // share of get k
	wireAdd    = 0.4 // share of add k 1; the rest are xfer k1 k2
	// wireWindow is each connection's fixed Client.Go pipeline depth,
	// below the server's per-connection MaxInFlight (128).
	wireWindow    = 64
	wireWarmupOps = 100_000
)

const (
	opGet uint8 = iota
	opAdd
	opXfer
)

var wireProcs = [...]string{"get", "add", "xfer"}

// wireOp is one generated wire call.
type wireOp struct {
	kind   uint8
	k1, k2 int32
}

// wireStream is one connection's operation sequence.
type wireStream struct {
	r     *rng.Rand
	shard []uint8 // owning shard of every key, for picking cross-shard pairs
}

func (s *wireStream) next() wireOp {
	x := s.r.Float64()
	op := wireOp{k1: int32(s.r.Intn(wireKeys))}
	switch {
	case x < wireGet:
		op.kind = opGet
	case x < wireGet+wireAdd:
		op.kind = opAdd
	default:
		op.kind = opXfer
		for {
			op.k2 = int32(s.r.Intn(wireKeys))
			if s.shard[op.k2] != s.shard[op.k1] {
				break
			}
		}
	}
	return op
}

// wireInputs is what the seed generates, shared by every set-up.
type wireInputs struct {
	c         *config
	keys      *workload.KeySpace
	shard     []uint8
	shardKeys [wireShards][]int32
}

// initialValue is key i's preloaded counter.
func initialValue(i int) int64 { return int64(i % 1000) }

func newWireStreams(seed uint64, gens int, shard []uint8) []*wireStream {
	var out []*wireStream
	for _, s := range genSeeds(seed, gens) {
		out = append(out, &wireStream{r: rng.New(s), shard: shard})
	}
	return out
}

func prepareWire(c *config) (setupFunc, error) {
	in := &wireInputs{c: c, keys: workload.NewKeySpace('k', wireKeys), shard: make([]uint8, wireKeys)}
	for i := range in.shard {
		s := doppel.HashPartitioner{}.Shard(in.keys.Key(i), wireShards)
		in.shard[i] = uint8(s)
		in.shardKeys[s] = append(in.shardKeys[s], int32(i))
	}
	f := c.facts
	f["shards"] = wireShards
	f["workers_per_shard"] = max(1, c.nproc/2)
	f["phase_ms"] = 20
	f["keys"] = wireKeys
	f["mix"] = fmt.Sprintf("get %.2f add %.2f xfer %.2f", wireGet, wireAdd, 1-wireGet-wireAdd)
	f["loop"] = "closed"
	f["connections"] = c.nproc
	f["window_per_connection"] = wireWindow
	f["warmup_ops"] = wireWarmupOps
	return func() (instance, error) { return openWire(in) }, nil
}

type wireInst struct {
	in      *wireInputs
	cluster *doppel.Cluster
	srv     *server.Server
	gens    []*wireGen
	slots   []*wireSlot // by slot index, the first argument of every call
}

// wireGen is one connection and the goroutine that keeps its pipeline
// window full.
type wireGen struct {
	idx    int
	client *server.Client
	stream *wireStream
	slots  []*wireSlot
	done   chan *server.Call // capacity wireWindow: the client never drops a reply
	calls  map[*server.Call]*wireSlot
	seq    uint64

	// lifetime, for the output check
	ackedAdds, failedAdds int64

	// per measured window
	lat        [3]*latency // by op kind
	attempted  int64
	completed  [3]int64
	failed     int64
	runs       [3]int64 // body runs by op kind
	routerRuns int64
	buf        *spanBuf
}

// wireSlot is one pipeline slot: one outstanding call at a time.
type wireSlot struct {
	idx    int
	op     wireOp
	args   [3]server.Arg
	opAt   int64 // op generation started
	start  int64 // Client.Go called
	end    int64 // reply received
	traced atomic.Bool
	runs   bodyRuns
}

func openWire(in *wireInputs) (instance, error) {
	cl, err := doppel.OpenCluster(doppel.ClusterOptions{
		Shards: wireShards,
		DB:     doppel.Options{Workers: max(1, in.c.nproc/2)},
	})
	if err != nil {
		return nil, err
	}
	inst := &wireInst{in: in, cluster: cl}
	for s := range in.shardKeys {
		keys := in.shardKeys[s]
		if err := preload(len(keys), 1000, cl.Exec, func(tx doppel.Tx, i int) error {
			k := int(keys[i])
			return tx.PutInt(in.keys.Key(k), initialValue(k))
		}); err != nil {
			cl.Close()
			return nil, err
		}
	}
	inst.srv = server.New(cl)
	inst.srv.Register("get", inst.get)
	inst.srv.Register("add", inst.add)
	inst.srv.Register("xfer", inst.xfer)
	addr, err := inst.srv.Listen("127.0.0.1:0")
	if err != nil {
		cl.Close()
		return nil, err
	}
	for i, st := range newWireStreams(in.c.seed, in.c.nproc, in.shard) {
		client, err := server.Dial(addr)
		if err != nil {
			inst.close()
			return nil, err
		}
		g := &wireGen{idx: i, client: client, stream: st,
			done: make(chan *server.Call, wireWindow), calls: make(map[*server.Call]*wireSlot, wireWindow)}
		for j := 0; j < wireWindow; j++ {
			s := &wireSlot{idx: len(inst.slots)}
			inst.slots = append(inst.slots, s)
			g.slots = append(g.slots, s)
		}
		inst.gens = append(inst.gens, g)
	}
	inst.load(-1, wireWarmupOps/int64(len(inst.gens)), nil)
	return inst, nil
}

var errBadArgs = errors.New("perfbench: bad arguments")

// args resolves a call's slot and its want (1 or 2) key arguments.
func (inst *wireInst) args(args []server.Arg, want int) (s *wireSlot, k1, k2 string, err error) {
	if len(args) != want+1 {
		return nil, "", "", errBadArgs
	}
	si, err := args[0].Int64()
	if err != nil || si < 0 || si >= int64(len(inst.slots)) {
		return nil, "", "", errBadArgs
	}
	var keys [2]string
	for i := 0; i < want; i++ {
		k, err := args[i+1].Int64()
		if err != nil || k < 0 || k >= wireKeys {
			return nil, "", "", errBadArgs
		}
		keys[i] = inst.in.keys.Key(int(k))
	}
	return inst.slots[si], keys[0], keys[1], nil
}

// enter and exit bracket a handler's body run when its call is traced.
func (s *wireSlot) enter(tx doppel.Tx) int {
	if !s.traced.Load() {
		return -1
	}
	return s.runs.enter(tx)
}

func (s *wireSlot) exit(i int, err error) {
	if i >= 0 {
		s.runs.exit(i, err)
	}
}

func (inst *wireInst) get(tx doppel.Tx, args []server.Arg) (server.Arg, error) {
	s, key, _, err := inst.args(args, 1)
	if err != nil {
		return server.Nil, err
	}
	i := s.enter(tx)
	v, err := tx.GetInt(key)
	s.exit(i, err)
	return server.Int(v), err
}

func (inst *wireInst) add(tx doppel.Tx, args []server.Arg) (server.Arg, error) {
	s, key, _, err := inst.args(args, 1)
	if err != nil {
		return server.Nil, err
	}
	i := s.enter(tx)
	err = tx.Add(key, 1)
	s.exit(i, err)
	return server.Nil, err
}

func (inst *wireInst) xfer(tx doppel.Tx, args []server.Arg) (server.Arg, error) {
	s, from, to, err := inst.args(args, 2)
	if err != nil {
		return server.Nil, err
	}
	i := s.enter(tx)
	err = tx.Add(from, -1)
	if err == nil {
		err = tx.Add(to, 1)
	}
	s.exit(i, err)
	return server.Nil, err
}

func (inst *wireInst) load(deadline, maxOps int64, tr *tracer) {
	var wg sync.WaitGroup
	for _, g := range inst.gens {
		for k := range g.lat {
			g.lat[k] = newLatency(now(), deadline)
		}
		g.attempted, g.completed, g.failed, g.runs, g.routerRuns = 0, [3]int64{}, 0, [3]int64{}, 0
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

func (g *wireGen) loop(deadline, maxOps int64, tr *tracer) {
	open := func() bool {
		return (deadline < 0 || now() < deadline) && (maxOps == 0 || g.attempted < maxOps)
	}
	issue := func(s *wireSlot) {
		s.opAt = now()
		s.op = g.stream.next()
		g.seq++
		if tr != nil {
			s.runs.reset(g.seq%uint64(tr.every) == 0)
		}
		s.traced.Store(tr != nil)
		s.args[0] = server.Int(int64(s.idx))
		s.args[1] = server.Int(int64(s.op.k1))
		n := 2
		if s.op.kind == opXfer {
			s.args[2] = server.Int(int64(s.op.k2))
			n = 3
		}
		g.attempted++
		s.start = now()
		g.calls[g.client.Go(wireProcs[s.op.kind], s.args[:n], g.done)] = s
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
		call := <-g.done
		s := g.calls[call]
		delete(g.calls, call)
		s.end = now()
		inflight--
		g.record(s, call.Err, deadline, tr)
		if open() {
			issue(s)
			inflight++
		}
	}
}

func (g *wireGen) record(s *wireSlot, err error, deadline int64, tr *tracer) {
	kind := s.op.kind
	if err != nil {
		g.failed++
		if kind == opAdd {
			g.failedAdds++
		}
		return
	}
	if kind == opAdd {
		g.ackedAdds++
	}
	if tr != nil {
		g.runs[kind] += int64(s.runs.n.Load())
		g.routerRuns += int64(s.runs.router.Load())
		if s.runs.sampled.Load() {
			id := uint64(g.idx)<<48 | g.seq
			class := [...]uint8{classRead, classWrite, classXfer}[kind]
			if p := g.buf.add(span{id: id, start: s.opAt, end: s.end, parent: -1, kind: spanOp, flags: class}); p >= 0 {
				if w := g.buf.add(span{id: id, start: s.start, end: s.end, parent: p, kind: spanWire}); w >= 0 {
					s.runs.appendTo(g.buf, id, w)
				}
			}
		}
	}
	if deadline >= 0 && s.end > deadline {
		return
	}
	g.completed[kind]++
	g.lat[kind].record(s.end, s.end-s.start)
}

func (inst *wireInst) measure(d time.Duration, tr *tracer, rep *report) error {
	before := inst.cluster.Stats()
	req0, _, _ := inst.srv.Stats()
	sheds0 := inst.srv.Sheds()
	w := startWindow()
	deadline := w.start + int64(d)
	loadDone := make(chan struct{})
	go func() {
		inst.load(deadline, 0, tr)
		close(loadDone)
	}()
	w.waitUntil(deadline, nil)
	secs, allocs := w.end()
	<-loadDone
	after := inst.cluster.Stats()
	req1, _, handled := inst.srv.Stats()

	var lat [3]*latency
	var completed, runs [3]int64
	var routerRuns int64
	for k := range lat {
		lat[k] = newLatency(w.start, deadline)
	}
	for _, g := range inst.gens {
		for k := range lat {
			lat[k].merge(g.lat[k])
			completed[k] += g.completed[k]
			runs[k] += g.runs[k]
		}
		routerRuns += g.routerRuns
		rep.attempted += g.attempted
		rep.failed += g.failed
	}
	total := completed[opGet] + completed[opAdd] + completed[opXfer]
	rep.set("txn_per_s", median(partRates(lat[:]...)))
	rep.setLatency("read", lat[opGet])
	rep.setLatency("write", lat[opAdd])
	rep.setLatency("xfer", lat[opXfer])
	rep.set("allocs_per_txn", ratio(float64(allocs), float64(total)))
	rep.set("heap_peak_mb", float64(w.heapPeak)/(1<<20))
	rep.set("failed_share", ratio(float64(rep.failed), float64(rep.attempted)))
	if tr == nil {
		return nil
	}

	inbound, outbound, queue, commit, body := newHist(), newHist(), newHist(), newHist(), newHist()
	var bufs []*spanBuf
	for _, g := range inst.gens {
		bufs = append(bufs, g.buf)
	}
	forEachOp(bufs, func(g *opGroup) {
		inbound.record(g.firstEntry() - g.wire.start)
		var probeExit, shardEntry int64 = -1, -1
		for _, b := range g.bodies {
			if b.flags&flagRouter != 0 {
				if probeExit < 0 {
					probeExit = b.end
				}
				continue
			}
			body.record(b.end - b.start)
			if shardEntry < 0 {
				shardEntry = b.start
			}
		}
		if probeExit >= 0 && shardEntry >= 0 {
			queue.record(shardEntry - probeExit)
		}
		if g.op.flags == classXfer {
			commit.record(g.wire.end - g.lastExit())
		} else {
			outbound.record(g.wire.end - g.lastExit())
		}
	})
	var aborted, stashed, fence, phases, shardRuns float64
	for i := range after.Shards {
		a, b := after.Shards[i], before.Shards[i]
		aborted += float64(a.Aborted - b.Aborted)
		stashed += float64(a.Stashed - b.Stashed)
		fence += float64(a.FenceAborts - b.FenceAborts)
		phases += float64(a.PhaseChanges - b.PhaseChanges)
	}
	shardRuns = float64(runs[opGet]+runs[opAdd]+runs[opXfer]) - float64(routerRuns)
	ra, rb := after.Router, before.Router
	xfers := float64(completed[opXfer])
	single := float64(completed[opGet] + completed[opAdd])
	crossShard := float64(ra.CrossShard - rb.CrossShard)

	zeroLayers(rep)
	rep.setLatency("doppel.queue_wait", queue)
	rep.set("core.body_runs_per_txn", ratio(shardRuns, float64(total)))
	rep.set("core.body_p50_us", body.quantile(0.5)/1e3)
	rep.samples["core.body_p50_us"] = body.n
	rep.set("core.abort_share", ratio(aborted, shardRuns))
	rep.set("core.stash_share", ratio(stashed, float64(total)))
	rep.set("core.phase_changes_per_s", phases/secs/float64(len(after.Shards)))
	rep.set("core.fence_aborts_per_xfer", ratio(fence, xfers))
	rep.set("router.body_runs_per_txn", ratio(float64(runs[opGet]+runs[opAdd]), single))
	rep.set("router.body_runs_per_xfer", ratio(float64(runs[opXfer]), xfers))
	rep.set("router.single_shard_share", ratio(float64(ra.SingleShard-rb.SingleShard), float64(total)))
	rep.set("router.reroutes_per_txn", ratio(float64(ra.Reroutes-rb.Reroutes), float64(total)))
	rep.set("router.retries_per_xfer", ratio(float64(ra.CrossShardRetries-rb.CrossShardRetries), crossShard))
	rep.set("router.fenced_keys_per_xfer", ratio(float64(ra.FencedKeys-rb.FencedKeys), crossShard))
	rep.setLatency("router.commit", commit)
	rep.setLatency("server.inbound", inbound)
	rep.setLatency("server.outbound", outbound)
	rep.set("server.handled_p50_us", float64(handled.Quantile(0.5))/1e3)
	rep.samples["server.handled_p50_us"] = int64(handled.Count())
	rep.set("server.shed_share", ratio(float64(inst.srv.Sheds()-sheds0), float64(req1-req0)))
	return nil
}

func (inst *wireInst) finish(rep *report, _ *tracer) {
	var sum, initial int64
	var readErr error
	for s := range inst.in.shardKeys {
		keys := inst.in.shardKeys[s]
		part, err := sumInts(len(keys), inst.cluster.Exec, func(i int) string { return inst.in.keys.Key(int(keys[i])) })
		if err != nil {
			readErr = err
		}
		sum += part
		for _, k := range keys {
			initial += initialValue(int(k))
		}
	}
	lost := inst.cluster.Stats().Router.CrossShardApplyLost
	inst.close()
	if readErr != nil {
		rep.checks = append(rep.checks, checkResult{"wire.read_back", readErr})
		return
	}
	o := wireOutcome{counterSum: sum, initialSum: initial, applyLost: lost}
	for _, g := range inst.gens {
		o.ackedAdds += g.ackedAdds
		o.failedAdds += g.failedAdds
	}
	rep.checks = append(rep.checks, checkWire(o)...)
}

func (inst *wireInst) close() {
	for _, g := range inst.gens {
		_ = g.client.Close()
	}
	if inst.srv != nil {
		inst.srv.Close()
	}
	inst.cluster.Close()
}
