package server

// Allocation regression test for the wire path: a loopback get through
// Client.Go allocates only the *Call the API hands back. Everything
// else — the client's request encode, the server's frame read, decode,
// dispatch, DB request, response encode and the client's response
// decode — runs on reused buffers and pooled frames.

import (
	"testing"

	"doppel"
)

const clientGetAllocs = 1 // the *Call

// openAllocServer serves a "get" of one preloaded key over loopback and
// returns a connected client.
func openAllocServer(tb testing.TB) *Client {
	tb.Helper()
	db := doppel.Open(doppel.Options{Workers: 1})
	if err := db.Exec(func(tx doppel.Tx) error { return tx.PutInt("k", 7) }); err != nil {
		tb.Fatal(err)
	}
	s := New(db)
	s.Register("get", func(tx doppel.Tx, args []Arg) (Arg, error) {
		n, err := tx.GetInt("k")
		return Int(n), err
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		c.Close()
		s.Close()
		db.Close()
	})
	return c
}

// getRoundTrip issues one get with Client.Go and waits for its reply.
func getRoundTrip(tb testing.TB, c *Client, args []Arg, done chan *Call) {
	call := <-c.Go("get", args, done).Done
	if call.Err != nil {
		tb.Fatal(call.Err)
	}
	if n, _ := call.Reply.Int64(); n != 7 {
		tb.Fatalf("get = %v, want 7", call.Reply)
	}
}

func TestClientGoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	c := openAllocServer(t)
	args := []Arg{Int(1)}
	done := make(chan *Call, 1)
	rt := func() { getRoundTrip(t, c, args, done) }
	for i := 0; i < 2000; i++ {
		rt()
	}
	if n := testing.AllocsPerRun(1000, rt); n > clientGetAllocs {
		t.Errorf("loopback get through Client.Go allocates %.2f objects/op, want <= %d", n, clientGetAllocs)
	}
}

// BenchmarkAllocsClientGo reports a loopback get's allocs/op, the
// shape TestClientGoAllocs gates.
func BenchmarkAllocsClientGo(b *testing.B) {
	c := openAllocServer(b)
	args := []Arg{Int(1)}
	done := make(chan *Call, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		getRoundTrip(b, c, args, done)
	}
}
