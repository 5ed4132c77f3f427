package doppel

// Allocation regression tests for the public request path. In steady
// state a read-only transaction submitted through DB.Exec, DB.ExecAsync
// or Cluster.ExecAsync allocates nothing, a single Add allocates at most
// its new immutable Value, and a cross-shard Add -1/+1 transfer stays
// within a small constant budget.

import (
	"testing"
)

// Per-transaction allocation ceilings, and the iteration counts that
// measure them.
const (
	readAllocs  = 0
	addAllocs   = 1
	xferAllocs  = 6
	allocRuns   = 1000
	allocWarmup = 2000
)

func allocRead(key string) TxFunc {
	return func(tx Tx) error { _, err := tx.GetInt(key); return err }
}

func allocAdd(key string) TxFunc {
	return func(tx Tx) error { return tx.Add(key, 1) }
}

func allocXfer(from, to string) TxFunc {
	return func(tx Tx) error {
		if err := tx.Add(from, -1); err != nil {
			return err
		}
		return tx.Add(to, 1)
	}
}

// asyncRunner submits through an ExecAsync-shaped function and waits
// for the outcome with a callback and channel bound once.
type asyncRunner struct {
	tb   testing.TB
	exec func(TxFunc, func(error))
	ch   chan error
	done func(error)
}

func newAsyncRunner(tb testing.TB, exec func(TxFunc, func(error))) *asyncRunner {
	a := &asyncRunner{tb: tb, exec: exec, ch: make(chan error, 1)}
	a.done = func(err error) { a.ch <- err }
	return a
}

func (a *asyncRunner) run(fn TxFunc) {
	a.exec(fn, a.done)
	if err := <-a.ch; err != nil {
		a.tb.Fatal(err)
	}
}

func openAllocDB(tb testing.TB) *DB {
	tb.Helper()
	db := Open(Options{Workers: 1})
	tb.Cleanup(db.Close)
	if err := db.Exec(func(tx Tx) error { return tx.PutInt("k", 0) }); err != nil {
		tb.Fatal(err)
	}
	return db
}

// openAllocCluster returns a 2-shard cluster and one preloaded key on
// each shard.
func openAllocCluster(tb testing.TB) (c *Cluster, k0, k1 string) {
	tb.Helper()
	c, err := OpenCluster(ClusterOptions{Shards: 2, DB: Options{Workers: 1}})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Close)
	for _, k := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		switch {
		case c.ShardOf(k) == 0 && k0 == "":
			k0 = k
		case c.ShardOf(k) == 1 && k1 == "":
			k1 = k
		}
	}
	if k0 == "" || k1 == "" {
		tb.Fatal("no key on each shard")
	}
	for _, k := range []string{k0, k1} {
		if err := c.Exec(func(tx Tx) error { return tx.PutInt(k, 0) }); err != nil {
			tb.Fatal(err)
		}
	}
	return c, k0, k1
}

// checkAllocs warms fn up and asserts its steady-state allocations.
func checkAllocs(t *testing.T, what string, budget float64, fn func()) {
	t.Helper()
	for i := 0; i < allocWarmup; i++ {
		fn()
	}
	if n := testing.AllocsPerRun(allocRuns, fn); n > budget {
		t.Errorf("%s allocates %.2f objects/op, want <= %v", what, n, budget)
	}
}

func TestExecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	db := openAllocDB(t)
	read, add := allocRead("k"), allocAdd("k")
	exec := func(fn TxFunc) func() {
		return func() {
			if err := db.Exec(fn); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkAllocs(t, "DB.Exec read-only", readAllocs, exec(read))
	checkAllocs(t, "DB.Exec single Add", addAllocs, exec(add))
	a := newAsyncRunner(t, db.ExecAsync)
	checkAllocs(t, "DB.ExecAsync read-only", readAllocs, func() { a.run(read) })
	checkAllocs(t, "DB.ExecAsync single Add", addAllocs, func() { a.run(add) })
}

func TestClusterExecAsyncAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	c, k0, k1 := openAllocCluster(t)
	a := newAsyncRunner(t, c.ExecAsync)
	read, add, xfer := allocRead(k1), allocAdd(k1), allocXfer(k0, k1)
	checkAllocs(t, "Cluster.ExecAsync single-shard read-only", readAllocs, func() { a.run(read) })
	checkAllocs(t, "Cluster.ExecAsync single-shard Add", addAllocs, func() { a.run(add) })
	checkAllocs(t, "Cluster.ExecAsync cross-shard transfer", xferAllocs, func() { a.run(xfer) })
	if lost := c.Stats().Router.CrossShardApplyLost; lost != 0 {
		t.Fatalf("CrossShardApplyLost = %d", lost)
	}
}

// BenchmarkAllocsExec reports DB.Exec and DB.ExecAsync allocs/op for
// the read-only and single-Add shapes TestExecAllocs gates.
func BenchmarkAllocsExec(b *testing.B) {
	db := openAllocDB(b)
	read, add := allocRead("k"), allocAdd("k")
	for _, bc := range []struct {
		name string
		fn   TxFunc
	}{{"read", read}, {"add", add}} {
		b.Run("Exec/"+bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := db.Exec(bc.fn); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("ExecAsync/"+bc.name, func(b *testing.B) {
			a := newAsyncRunner(b, db.ExecAsync)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a.run(bc.fn)
			}
		})
	}
}

// BenchmarkAllocsClusterExecAsync reports Cluster.ExecAsync allocs/op
// for the shapes TestClusterExecAsyncAllocs gates.
func BenchmarkAllocsClusterExecAsync(b *testing.B) {
	c, k0, k1 := openAllocCluster(b)
	for _, bc := range []struct {
		name string
		fn   TxFunc
	}{{"read", allocRead(k1)}, {"add", allocAdd(k1)}, {"xfer", allocXfer(k0, k1)}} {
		b.Run(bc.name, func(b *testing.B) {
			a := newAsyncRunner(b, c.ExecAsync)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a.run(bc.fn)
			}
		})
	}
}
