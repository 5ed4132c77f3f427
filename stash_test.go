package doppel

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"doppel/internal/core"
	"doppel/internal/engine"
)

// manualPhases opens a database whose coordinator never changes phase
// on its own (the tests drive phases through the engine) and creates
// the integer record "hot".
func manualPhases(t *testing.T) *DB {
	t.Helper()
	db := Open(Options{Workers: 1, PhaseLength: time.Hour})
	if err := db.Exec(func(tx Tx) error { return tx.PutInt("hot", 0) }); err != nil {
		t.Fatal(err)
	}
	return db
}

// waitFor polls cond until it holds, failing the test after 10s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// enterSplit splits "hot" for Add and waits until the workers run the
// split phase.
func enterSplit(t *testing.T, eng *core.DB) {
	t.Helper()
	eng.SplitHint("hot", OpAdd)
	if !eng.RequestSplitPhase() {
		t.Fatal("split phase refused")
	}
	waitFor(t, "the split phase", func() bool { return eng.Phase() == core.PhaseSplit })
}

// readHotThen returns a body that reads "hot" — which stashes it during
// a split phase, recorded in stashed — and then returns replayErr().
func readHotThen(stashed *atomic.Bool, replayErr func() error) TxFunc {
	return func(tx Tx) error {
		if _, err := tx.GetInt("hot"); err != nil {
			if errors.Is(err, engine.ErrStash) {
				stashed.Store(true)
			}
			return err
		}
		return replayErr()
	}
}

// TestStashedReplayReturnsBodyError: a transaction stashed during a
// split phase completes with the outcome of its replay in the next
// joined phase — here the body's own error — through every submission
// path, not with a blanket nil.
func TestStashedReplayReturnsBodyError(t *testing.T) {
	boom := errors.New("boom")
	paths := []struct {
		name string
		open func(t *testing.T) (eng *core.DB, submit func(TxFunc, func(error)), close func())
	}{
		{"Exec", func(t *testing.T) (*core.DB, func(TxFunc, func(error)), func()) {
			db := manualPhases(t)
			return db.Internal(), func(fn TxFunc, done func(error)) {
				go func() { done(db.Exec(fn)) }()
			}, db.Close
		}},
		{"ExecAsync", func(t *testing.T) (*core.DB, func(TxFunc, func(error)), func()) {
			db := manualPhases(t)
			return db.Internal(), db.ExecAsync, db.Close
		}},
		{"ClusterExec", func(t *testing.T) (*core.DB, func(TxFunc, func(error)), func()) {
			cl, err := OpenCluster(ClusterOptions{Shards: 2, DB: Options{Workers: 1, PhaseLength: time.Hour}})
			if err != nil {
				t.Fatal(err)
			}
			if err := cl.Exec(func(tx Tx) error { return tx.PutInt("hot", 0) }); err != nil {
				t.Fatal(err)
			}
			return cl.dbs[cl.ShardOf("hot")].Internal(), func(fn TxFunc, done func(error)) {
				go func() { done(cl.Exec(fn)) }()
			}, cl.Close
		}},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			eng, submit, closeFn := p.open(t)
			defer closeFn()
			enterSplit(t, eng)
			var stashed atomic.Bool
			result := make(chan error, 1)
			submit(readHotThen(&stashed, func() error { return boom }), func(err error) { result <- err })
			waitFor(t, "the transaction to stash", stashed.Load)
			if !eng.RequestJoinedPhase() {
				t.Fatal("joined phase refused")
			}
			select {
			case err := <-result:
				if !errors.Is(err, boom) {
					t.Fatalf("stashed transaction completed with %v, want the replay's %v", err, boom)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("stashed transaction never completed")
			}
		})
	}
}

// TestStashDroppedReportsError: a stashed transaction whose replay
// livelocks (every replay conflict-aborts) is dropped after the drain's
// replay cap; its caller gets an error, not a commit acknowledgement,
// and Stats counts the drop.
func TestStashDroppedReportsError(t *testing.T) {
	db := manualPhases(t)
	defer db.Close()
	eng := db.Internal()
	enterSplit(t, eng)
	var stashed atomic.Bool
	result := make(chan error, 1)
	db.ExecAsync(readHotThen(&stashed, func() error { return engine.ErrAbort }), func(err error) { result <- err })
	waitFor(t, "the transaction to stash", stashed.Load)
	if !eng.RequestJoinedPhase() {
		t.Fatal("joined phase refused")
	}
	select {
	case err := <-result:
		if err == nil {
			t.Fatal("a dropped stashed transaction was acknowledged as committed")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("stashed transaction never completed")
	}
	db.Close() // stop the workers before reading their counters
	if n := db.Stats().StashDropped; n != 1 {
		t.Fatalf("StashDropped = %d, want 1", n)
	}
}

// TestFenceCloseCompletesStashedAndFenced: Close while one request
// waits on a held commit fence and another sits in the stash for the
// next joined phase. Close must wait for both; once the fence releases
// and the joined phase begins, each callback fires exactly once with
// its transaction's commit.
func TestFenceCloseCompletesStashedAndFenced(t *testing.T) {
	db := manualPhases(t)
	eng := db.Internal()
	if err := db.Exec(func(tx Tx) error { return tx.PutInt("fenced", 0) }); err != nil {
		t.Fatal(err)
	}
	const tok = 7
	rec := eng.Store().Get("fenced")
	if !rec.Fence(tok) {
		t.Fatal("fence refused")
	}

	var calls [2]atomic.Int32
	var errs [2]atomic.Value
	callback := func(i int) func(error) {
		return func(err error) {
			calls[i].Add(1)
			if err != nil {
				errs[i].Store(err)
			}
		}
	}
	var fencedRuns atomic.Int32
	db.ExecAsync(func(tx Tx) error {
		fencedRuns.Add(1)
		return tx.PutInt("fenced", 1)
	}, callback(0))
	waitFor(t, "the write to meet the fence", func() bool { return fencedRuns.Load() > 0 })

	enterSplit(t, eng)
	var stashed atomic.Bool
	db.ExecAsync(readHotThen(&stashed, func() error { return nil }), callback(1))
	waitFor(t, "the read to stash", stashed.Load)

	closed := make(chan struct{})
	go func() {
		db.Close()
		close(closed)
	}()
	waitFor(t, "Close to start", db.stopped.Load)
	time.Sleep(5 * time.Millisecond)
	select {
	case <-closed:
		t.Fatal("Close returned while a fenced and a stashed request were pending")
	default:
	}
	for i := range calls {
		if n := calls[i].Load(); n != 0 {
			t.Fatalf("callback %d fired %d times before its transaction could run", i, n)
		}
	}

	rec.Unfence(tok)
	if !eng.RequestJoinedPhase() {
		t.Fatal("joined phase refused")
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned after the fence released and the joined phase began")
	}
	for i := range calls {
		if n := calls[i].Load(); n != 1 {
			t.Errorf("callback %d fired %d times, want exactly 1", i, n)
		}
		if err := errs[i].Load(); err != nil {
			t.Errorf("callback %d: %v", i, err)
		}
	}
	if n := rec.Value().Int; n != 1 {
		t.Errorf("fenced record = %d after Close, want 1", n)
	}
}
