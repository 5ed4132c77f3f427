// Package doppel is an in-memory transactional key/value database that
// uses phase reconciliation to execute contended commutative updates in
// parallel, reproducing "Phase Reconciliation for Contended In-Memory
// Transactions" (Narula, Cutler, Kohler, Morris — OSDI 2014).
//
// The database cycles through joined, split and reconciliation phases.
// Joined phases run every transaction under Silo-style OCC. When a
// record becomes contended under a commutative operation (Add, Max, Min,
// Mult, OPut, TopKInsert), Doppel marks it split: during split phases
// that operation updates per-core slices with no coordination, and short
// reconciliation phases merge the slices back. Transactions that touch
// split data any other way are transparently stashed and re-executed in
// the next joined phase; callers just observe a slower commit.
//
// # Quick start
//
//	db := doppel.Open(doppel.Options{})
//	defer db.Close()
//	err := db.Exec(func(tx doppel.Tx) error {
//		if err := tx.Add("page:42:likes", 1); err != nil {
//			return err
//		}
//		return tx.PutBytes("user:7:last", []byte("page:42"))
//	})
//
// Exec retries conflict aborts internally and returns after the
// transaction has committed (or failed with the body's own error).
package doppel

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"doppel/internal/checkpoint"
	"doppel/internal/core"
	"doppel/internal/engine"
	"doppel/internal/metrics"
	"doppel/internal/store"
	"doppel/internal/wal"
)

// Tx is the transaction interface passed to transaction bodies. See
// engine.Tx for method semantics; the splittable operations (Add, Max,
// Min, Mult, OPut, TopKInsert) are the ones phase reconciliation can
// parallelize under contention.
type Tx = engine.Tx

// TxFunc is a transaction body. Bodies may be re-executed after
// conflicts or stashes and must therefore be pure functions of the
// database state they read.
type TxFunc = engine.TxFunc

// Order is the ordering component of OPut's ordered tuples.
type Order = store.Order

// TopKEntry is one member of a top-K set record.
type TopKEntry = store.TopKEntry

// Value is an immutable typed record value.
type Value = store.Value

// OpKind identifies an operation for SplitHint.
type OpKind = store.OpKind

// Splittable operation kinds for SplitHint.
const (
	OpAdd        = store.OpAdd
	OpMax        = store.OpMax
	OpMin        = store.OpMin
	OpMult       = store.OpMult
	OpOPut       = store.OpOPut
	OpTopKInsert = store.OpTopKInsert
)

// Stats is a point-in-time summary of database activity.
type Stats struct {
	Committed    uint64
	Aborted      uint64
	Stashed      uint64
	Retries      uint64
	Phase        string
	PhaseChanges uint64
	SplitKeys    []string
	// MergeFailures counts reconciliation merges that failed on a type
	// mismatch between a split record's global value and a per-core
	// slice; the affected slice writes were dropped and the record kept
	// its previous value and TID. Non-zero means the application mixed
	// incompatible operations on a split key.
	MergeFailures uint64
	// StashDropped counts stashed transactions the drain abandoned after
	// its replay cap (over a million consecutive conflict aborts — a
	// pathological livelock). Each dropped transaction never executed:
	// its Exec, ExecAsync or Cluster.Exec call completes with a non-nil
	// error saying so, and each worker also logs the first drop it makes.
	StashDropped uint64
	// FenceAborts counts attempts that yielded to a cross-shard commit
	// fence: the transaction touched a key an in-flight cross-shard
	// commit had validated but not yet applied. These retry like
	// conflict aborts (fences live for microseconds); the counter is
	// only ever non-zero for shards of a Cluster.
	FenceAborts uint64
	// RedoLogError is the redo logger's terminal failure ("" when
	// healthy or logging is disabled). Logging is asynchronous, so
	// transactions keep committing in memory after such a failure —
	// operators must watch this field to know durability has stopped.
	RedoLogError string
	// ScrubPasses counts completed WAL scrub passes (background via
	// Options.ScrubEvery plus manual ScrubWAL calls); ScrubError is the
	// newest pass's damage report, "" while the log audits clean. A
	// non-empty value means a sealed segment recovery would need has
	// decayed on disk — act while the database is still healthy.
	ScrubPasses uint64
	ScrubError  string
}

// WALScrubStats summarizes one WAL scrub pass; see wal.ScrubDir.
type WALScrubStats = wal.ScrubStats

// CheckpointStats summarizes checkpoint activity; see checkpoint.Stats.
type CheckpointStats = checkpoint.Stats

// RecoveryStats reports what Recover read to rebuild the database. After
// a checkpoint, recovery is bounded: it loads the snapshot and replays
// only the segments written after it.
type RecoveryStats struct {
	SnapshotFile     string // snapshot loaded, "" when none existed
	SnapshotEntries  int    // records restored from the snapshot
	SnapshotSeq      uint64 // first segment sequence the snapshot does not cover
	SegmentsReplayed int    // live segments replayed after the snapshot
	RecordsReplayed  int    // redo records replayed from those segments
	Parallelism      int    // goroutines used for snapshot decode and segment replay
	Overlapped       bool   // segment replay ran concurrently with the snapshot load
}

// DB is a Doppel database with its own worker goroutines. All methods
// are safe for concurrent use.
type DB struct {
	eng        *core.DB
	redo       *wal.Logger
	redoDir    string
	ckpt       *checkpoint.Checkpointer
	syncCommit bool
	recovery   RecoveryStats
	queues     []chan *request
	wg         sync.WaitGroup
	stopped    atomic.Bool
	next       atomic.Uint64

	scrubStop chan struct{}
	scrubWG   sync.WaitGroup
	scrubMu   sync.Mutex
	scrubs    uint64
	scrubErr  error
}

// request is one submitted transaction on its way through a worker
// queue. Requests are pooled: ExecAsync recycles its request before
// invoking the callback, Exec after reading the outcome from done (which
// stays allocated with the request and is reused). A cancelled
// ExecContext abandons its request to the GC instead, because the
// worker may still complete it.
type request struct {
	db     *DB
	w      int // the worker that runs it
	fn     TxFunc
	submit int64
	done   chan error      // synchronous completion (Exec); capacity 1
	cb     func(error)     // asynchronous completion (ExecAsync); nil for Exec
	ctx    context.Context // nil means not cancellable (Exec, ExecAsync)
	// complete is finish bound once, when the request was first pooled;
	// the engine calls it with the transaction's outcome.
	complete func(error)
}

var requestPool sync.Pool

// newRequest takes a request from the pool, binds fn to it and picks
// the worker that will run it.
func (db *DB) newRequest(fn TxFunc) *request {
	req, _ := requestPool.Get().(*request)
	if req == nil {
		req = &request{done: make(chan error, 1)}
		req.complete = req.finish
	}
	req.db, req.fn = db, fn
	req.w = int(db.next.Add(1)) % len(db.queues)
	req.submit = time.Now().UnixNano()
	return req
}

// recycle returns a finished request to the pool. The caller must be
// its last user: the worker for ExecAsync, the submitter for Exec.
func (req *request) recycle() {
	req.db, req.fn, req.cb, req.ctx = nil, nil, nil, nil
	requestPool.Put(req)
}

// finish reports the request's outcome through whichever completion
// mechanism the submitter chose. Under SyncCommit a commit is first
// held until its redo record is durable (after a stash drain, the first
// completion's wait covers the rest). An asynchronous request is
// recycled before its callback runs, so the callback may submit again
// without growing the pool.
func (req *request) finish(err error) {
	if db := req.db; err == nil && db.syncCommit {
		err = db.waitDurableCommit(req.w)
	}
	if cb := req.cb; cb != nil {
		req.recycle()
		cb(err)
		return
	}
	req.done <- err
}

// Open creates a database and starts its workers. It panics only on
// programmer error; an unopenable redo log is returned by OpenErr.
func Open(opts Options) *DB {
	db, err := OpenErr(opts)
	if err != nil {
		panic(err)
	}
	return db
}

// OpenErr is Open with an error return (needed only when Options.RedoLog
// is set). It refuses a durability directory that already holds logged
// state — appending a fresh database's records behind an old
// generation's would make the new writes unrecoverable; use Recover for
// existing directories.
func OpenErr(opts Options) (*DB, error) {
	if opts.RedoLog != "" {
		has, err := wal.HasState(opts.RedoLog)
		if err != nil {
			return nil, err
		}
		if has {
			return nil, fmt.Errorf("%w: %s", ErrLogExists, opts.RedoLog)
		}
	}
	return openInto(opts, store.New())
}

// Recover rebuilds a database from the durability directory at dir:
// it loads the manifest's snapshot (if any), replays only the segments
// the snapshot does not cover, and starts the database. Loading is
// parallel (Options.RecoveryParallelism): snapshot entries decode on N
// goroutines sharded by key, and segments replay concurrently — safe
// because a redo record applies only when it advances the key's TID,
// so the merge is order-independent. Unless opts.RedoLog names a
// different directory, logging resumes into dir by appending fresh
// records to the existing log — recovering and crashing again never
// loses recovered state. RecoveryStats reports how bounded the replay
// was.
func Recover(dir string, opts Options) (*DB, error) {
	st, res, err := checkpoint.LoadStore(dir, checkpoint.LoadOptions{
		Parallelism: opts.RecoveryParallelism,
		Overlap:     opts.RecoveryOverlap,
	})
	if err != nil {
		return nil, err
	}
	if opts.RedoLog == "" {
		opts.RedoLog = dir
	}
	db, err := openInto(opts, st)
	if err != nil {
		return nil, err
	}
	db.recovery = RecoveryStats{
		SnapshotFile:     res.Manifest.Snapshot,
		SnapshotEntries:  res.SnapshotEntries,
		SnapshotSeq:      res.Manifest.SnapshotSeq,
		SegmentsReplayed: len(res.Segments),
		RecordsReplayed:  res.Records,
		Parallelism:      res.Parallelism,
		Overlapped:       res.Overlapped,
	}
	return db, nil
}

func openInto(opts Options, st *store.Store) (*DB, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts, cfg := opts.resolve()
	workers := opts.Workers
	var redo *wal.Logger
	if opts.RedoLog != "" {
		var err error
		redo, err = wal.OpenOptions(opts.RedoLog, wal.Options{MaxSegmentBytes: opts.MaxSegmentBytes})
		if err != nil {
			return nil, err
		}
		cfg.Redo = redo
		cfg.WALFailStop = opts.WALFailStop
	}
	db := &DB{
		eng:        core.Open(st, cfg),
		redo:       redo,
		syncCommit: opts.SyncCommit && redo != nil,
		queues:     make([]chan *request, workers),
	}
	if redo != nil {
		db.redoDir = opts.RedoLog
		db.ckpt = checkpoint.New(db.eng, redo, checkpoint.Options{
			Every:       opts.CheckpointEvery,
			FrameBuffer: opts.CheckpointFrameBuffer,
		})
		if opts.ScrubEvery > 0 {
			db.scrubStop = make(chan struct{})
			db.scrubWG.Add(1)
			go db.scrubLoop(opts.ScrubEvery)
		}
	}
	for w := 0; w < workers; w++ {
		db.queues[w] = make(chan *request, 128)
		db.wg.Add(1)
		go db.worker(w)
	}
	return db, nil
}

// worker drives one engine worker: it runs each submitted request
// through the engine and polls between requests so phase transitions
// keep moving, and stashed or fence-blocked transactions retry, even
// when idle. Once the queue is closed it keeps polling until the
// engine's stash is empty, so every request still waiting there — for
// the next joined phase, or for a fence released by another worker's
// cross-shard apply — is replayed and completed before Close returns.
func (db *DB) worker(w int) {
	defer db.wg.Done()
	q := db.queues[w]
	idle := time.NewTicker(200 * time.Microsecond)
	defer idle.Stop()
	for {
		select {
		case req, ok := <-q:
			if !ok {
				for db.eng.Pending(w) > 0 {
					db.eng.Poll(w)
					time.Sleep(20 * time.Microsecond)
				}
				return
			}
			// A request cancelled while it waited in the queue never
			// executes (the ExecContext contract); the caller has already
			// returned, so the completion lands in the buffered done
			// channel unread.
			if req.ctx != nil && req.ctx.Err() != nil {
				req.finish(req.ctx.Err())
				continue
			}
			db.eng.Run(w, req.fn, req.submit, req.complete)
		case <-idle.C:
			db.eng.Poll(w)
		}
	}
}

// waitDurableCommit holds a SyncCommit acknowledgement until the
// transaction's redo record is written and fsynced. A commit that
// buffered split (slice) writes has no redo record yet — slice writes
// are logged when reconciliation merges them at the next phase
// transition — so first poll the engine until this worker's slices
// have reconciled (bounded by the coordinator's phase clock, like the
// stash wait), then wait on the group-commit watermark. Concurrent
// commits share each fsync; a terminal logger failure surfaces here
// instead of acknowledging a commit that can never be durable.
func (db *DB) waitDurableCommit(w int) error {
	for db.eng.SliceRedoPending(w) {
		db.eng.Poll(w)
		time.Sleep(50 * time.Microsecond)
	}
	if err := db.redo.WaitDurable(db.eng.RedoLSN(w)); err != nil {
		return fmt.Errorf("doppel: commit not durable: %w", err)
	}
	return nil
}

// Exec runs fn as a serializable transaction and returns once it has
// committed. A transaction stashed during a split phase returns after
// its replay in the next joined phase. A non-nil return is fn's own
// error (from whichever run decided the outcome), the redo log's
// failure under WALFailStop or SyncCommit, or the error of a stashed
// transaction dropped after a replay livelock (see
// Stats.StashDropped); conflicts are retried internally. Exec is
// exactly ExecContext(context.Background(), fn).
func (db *DB) Exec(fn TxFunc) error {
	return db.ExecContext(context.Background(), fn)
}

// ExecContext is Exec with cancellation: if ctx is cancelled while the
// request is still waiting in the worker queue — either the queue is
// full or the worker has not reached it yet — the transaction does not
// execute and ctx's error is returned. Cancellation is checked up to
// the moment a worker starts the first execution attempt; once
// execution has begun the transaction runs to completion (a commit
// cannot be un-happened), and a cancellation that fires during it makes
// ExecContext return ctx's error even though the transaction may still
// commit. Use Exec when that ambiguity is unacceptable.
func (db *DB) ExecContext(ctx context.Context, fn TxFunc) error {
	if db.stopped.Load() {
		return ErrClosed
	}
	req := db.newRequest(fn)
	if ctx.Done() == nil {
		// Not cancellable (context.Background()): plain channel operations
		// keep the hot path free of selectgo.
		db.queues[req.w] <- req
		err := <-req.done
		req.recycle()
		return err
	}
	req.ctx = ctx
	select {
	case db.queues[req.w] <- req:
	case <-ctx.Done():
		req.recycle() // never queued
		return ctx.Err()
	}
	select {
	case err := <-req.done:
		req.recycle()
		return err
	case <-ctx.Done():
		// The worker still owns the request; its completion send lands in
		// the buffered done channel and is dropped with the request, which
		// is abandoned to the GC rather than recycled.
		return ctx.Err()
	}
}

// ExecAsync submits fn like Exec but returns without waiting: done is
// called exactly once with the transaction's outcome, from the worker
// goroutine that completed it. done must be quick and must not submit
// further transactions synchronously, or it stalls that worker. This is
// the batching path the network server uses to keep every worker busy
// without one blocked goroutine per in-flight request. The submission
// itself allocates nothing in steady state.
//
//doppel:hotpath
func (db *DB) ExecAsync(fn TxFunc, done func(error)) {
	if db.stopped.Load() {
		done(ErrClosed)
		return
	}
	req := db.newRequest(fn)
	req.cb = done
	db.queues[req.w] <- req
}

// Checkpoint forces a checkpoint now: a consistent snapshot is written
// at a quiesced phase boundary, the WAL rotates, and segments the
// snapshot covers are garbage-collected. It returns once the checkpoint
// is durable. Requires Options.RedoLog.
func (db *DB) Checkpoint() error {
	if db.ckpt == nil {
		return fmt.Errorf("Checkpoint: %w", ErrRequiresRedoLog)
	}
	if db.stopped.Load() {
		return ErrClosed
	}
	return db.ckpt.Checkpoint()
}

// ScrubWAL audits the redo log's sealed segments now: every live sealed
// segment is re-decoded end to end and cross-checked against the
// manifest's sealed metadata — the same validation recovery performs,
// run on demand while the database is healthy. A non-nil error is the
// joined damage report; the pass also feeds Stats.ScrubPasses and
// Stats.ScrubError. Scrubbing only reads and runs concurrently with
// traffic and checkpoints (a segment GC'd mid-pass counts as skipped).
// Requires Options.RedoLog.
func (db *DB) ScrubWAL() (WALScrubStats, error) {
	if db.redo == nil {
		return WALScrubStats{}, fmt.Errorf("ScrubWAL: %w", ErrRequiresRedoLog)
	}
	stats, err := wal.ScrubDir(db.redoDir)
	db.scrubMu.Lock()
	db.scrubs++
	db.scrubErr = err
	db.scrubMu.Unlock()
	return stats, err
}

// scrubLoop runs background scrub passes every interval until Close.
func (db *DB) scrubLoop(every time.Duration) {
	defer db.scrubWG.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-db.scrubStop:
			return
		case <-t.C:
			_, _ = db.ScrubWAL()
		}
	}
}

// CheckpointStats returns checkpoint activity counters (zero when no
// redo log is configured).
func (db *DB) CheckpointStats() CheckpointStats {
	if db.ckpt == nil {
		return CheckpointStats{}
	}
	return db.ckpt.Stats()
}

// LastRecovery reports what Recover loaded to build this database; it is
// zero for databases not created by Recover.
func (db *DB) LastRecovery() RecoveryStats { return db.recovery }

// WALErr returns the redo logger's terminal failure, or nil while the
// logger is healthy or logging is disabled. Logging is asynchronous, so
// without Options.WALFailStop transactions keep committing in memory
// after such a failure — operators must watch this (or
// Stats.RedoLogError) to know durability has stopped.
func (db *DB) WALErr() error {
	if db.redo == nil {
		return nil
	}
	return db.redo.Err()
}

// DurableLSN returns the redo log's durability watermark: every record
// whose LSN is at or below it has been written and fsynced. Zero when
// logging is disabled. Compared against a Replica's AppliedLSN it is
// the replication lag in records.
func (db *DB) DurableLSN() uint64 {
	if db.redo == nil {
		return 0
	}
	return db.redo.Durable()
}

// LogPosition returns the redo log's durable byte position — the
// replication offset a follower must reach to have applied every
// acknowledged commit. Zero when logging is disabled. After Close the
// final flush has run, so the value is the log's true end.
func (db *DB) LogPosition() LogPosition {
	if db.redo == nil {
		return LogPosition{}
	}
	return db.redo.DurablePosition()
}

// SplitHint manually labels key as split data for op (§5.5 of the
// paper). The classifier handles hot keys automatically; hints are for
// workloads whose contention the application can predict.
func (db *DB) SplitHint(key string, op OpKind) { db.eng.SplitHint(key, op) }

// ClearSplitHint removes a manual label.
func (db *DB) ClearSplitHint(key string) { db.eng.ClearSplitHint(key) }

// Stats returns aggregate statistics.
func (db *DB) Stats() Stats {
	agg := metrics.NewTxnStats()
	for w := 0; w < db.eng.Workers(); w++ {
		agg.Merge(db.eng.WorkerStats(w))
	}
	s := Stats{
		Committed:     agg.Committed,
		Aborted:       agg.Aborted,
		Stashed:       agg.Stashed,
		Retries:       agg.Retries,
		MergeFailures: agg.MergeFailures,
		StashDropped:  agg.StashDropped,
		FenceAborts:   agg.FenceAborts,
		Phase:         db.eng.Phase().String(),
		PhaseChanges:  db.eng.PhaseChanges(),
		SplitKeys:     db.eng.SplitKeys(),
	}
	if db.redo != nil {
		if err := db.redo.Err(); err != nil {
			s.RedoLogError = err.Error()
		}
		db.scrubMu.Lock()
		s.ScrubPasses = db.scrubs
		if db.scrubErr != nil {
			s.ScrubError = db.scrubErr.Error()
		}
		db.scrubMu.Unlock()
	}
	return s
}

// Close stops the workers, reconciles outstanding per-core slices and
// completes every queued, stashed or fence-blocked transaction. The
// database must not be used after Close.
func (db *DB) Close() {
	if db.stopped.Swap(true) {
		return
	}
	if db.scrubStop != nil {
		close(db.scrubStop)
		db.scrubWG.Wait()
	}
	// Stop the checkpointer while the workers are still being driven: an
	// in-flight checkpoint barrier needs polling workers to complete.
	if db.ckpt != nil {
		db.ckpt.Close()
	}
	for _, q := range db.queues {
		close(q)
	}
	db.wg.Wait()
	db.eng.Close()
	if db.redo != nil {
		_ = db.redo.Close()
	}
}

// Internal returns the underlying engine for benchmarks and tests that
// need direct worker control.
func (db *DB) Internal() *core.DB { return db.eng }
