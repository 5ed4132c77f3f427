package main

import "fmt"

// The output checks are pure functions of what a run observed, so the
// self-tests can feed them tampered outcomes.

// inRange checks that a store-side total accounts for every
// acknowledged update: acknowledged ones must all be there, and a
// failed one may or may not have committed.
func inRange(name string, got, acked, failed int64) checkResult {
	if got < acked || got > acked+failed {
		return checkResult{name, fmt.Errorf("store holds %d, want %d acknowledged (+ up to %d failed)", got, acked, failed)}
	}
	return checkResult{name: name}
}

func zero(name string, v uint64) checkResult {
	if v != 0 {
		return checkResult{name, fmt.Errorf("%d, want 0", v)}
	}
	return checkResult{name: name}
}

// likeOutcome is what the like workload's check reads back.
type likeOutcome struct {
	pageSum       int64 // Σ page like counters after the load stopped
	ackedWrites   int64 // like-writes acknowledged without error
	failedWrites  int64
	mergeFailures uint64
	stashDropped  uint64
}

func checkLike(o likeOutcome) []checkResult {
	return []checkResult{
		inRange("like.page_sum", o.pageSum, o.ackedWrites, o.failedWrites),
		zero("like.merge_failures", o.mergeFailures),
		zero("like.stash_dropped", o.stashDropped),
	}
}

// wireOutcome is what the wire-cluster workload's check reads back.
type wireOutcome struct {
	counterSum int64 // Σ counters after the load stopped
	initialSum int64 // Σ counters as preloaded
	ackedAdds  int64
	failedAdds int64
	applyLost  uint64 // RouterStats.CrossShardApplyLost
}

func checkWire(o wireOutcome) []checkResult {
	// xfers move one unit between two counters, so they must net to zero:
	// any other change of the sum is a lost or invented add.
	return []checkResult{
		inRange("wire.counter_sum", o.counterSum-o.initialSum, o.ackedAdds, o.failedAdds),
		zero("wire.apply_lost", o.applyLost),
	}
}

// durableRow is one key's state as read back: its counter and profile.
type durableRow struct {
	counter int64
	profile []byte
}

// durableModel is what the durable-follow workload acknowledged: per
// key the acknowledged and failed adds, and per write sequence number
// whether it was acknowledged (each write's profile names its sequence
// number).
type durableModel struct {
	acked    []int64
	failed   []int64
	seqAcked []bool
}

func newDurableModel(keys int) *durableModel {
	return &durableModel{acked: make([]int64, keys), failed: make([]int64, keys)}
}

// checkRows compares read-back rows against the model: every key's
// counter accounts for its acknowledged adds, and its profile is one an
// acknowledged write to that key produced — or the preloaded one, when
// no write reached the key.
func (m *durableModel) checkRows(name string, rows []durableRow) checkResult {
	if len(rows) != len(m.acked) {
		return checkResult{name, fmt.Errorf("read %d keys, want %d", len(rows), len(m.acked))}
	}
	for k, r := range rows {
		if r.counter < m.acked[k] || r.counter > m.acked[k]+m.failed[k] {
			return checkResult{name, fmt.Errorf("key %d: counter %d, want %d acknowledged adds (+ up to %d failed)", k, r.counter, m.acked[k], m.failed[k])}
		}
		key, seq, ok := parseProfile(r.profile)
		switch {
		case !ok || key != k:
			ok = false
		case seq < 0:
			ok = r.counter == 0
		default:
			// A failed write may have committed its profile.
			ok = seq < int64(len(m.seqAcked)) && (m.seqAcked[seq] || m.failed[k] > 0)
		}
		if !ok {
			return checkResult{name, fmt.Errorf("key %d: profile %q was not written by an acknowledged write to it", k, r.profile)}
		}
	}
	return checkResult{name: name}
}

// checkDurable runs the durable-follow checks: recovery returns every
// acknowledged write, the replica at the final log position reads back
// values identical to the recovered ones, and its tail never failed.
func checkDurable(m *durableModel, recovered, replica []durableRow, tailError string) []checkResult {
	out := []checkResult{m.checkRows("durable.recover_acked", recovered)}
	same := checkResult{name: "durable.replica_identical"}
	if len(replica) != len(recovered) {
		same.err = fmt.Errorf("replica read %d keys, recovery %d", len(replica), len(recovered))
	} else {
		for k := range replica {
			if replica[k].counter != recovered[k].counter || string(replica[k].profile) != string(recovered[k].profile) {
				same.err = fmt.Errorf("key %d: replica (%d, %q) != recovered (%d, %q)", k,
					replica[k].counter, replica[k].profile, recovered[k].counter, recovered[k].profile)
				break
			}
		}
	}
	tail := checkResult{name: "durable.tail_error"}
	if tailError != "" {
		tail.err = fmt.Errorf("replica tail failed: %s", tailError)
	}
	return append(out, same, tail)
}
