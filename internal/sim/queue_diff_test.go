package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// popBoth pops one event from each queue and fails if they disagree.
// Returns the popped (at, seq).
func popBoth(t testing.TB, q *eventQueue, r *refQueue) (Time, uint64) {
	t.Helper()
	ev := q.pop()
	ref := (*r)[0]
	heap.Pop(r)
	if ev.at != ref.at || ev.seq != ref.seq {
		t.Fatalf("pop order diverged: new queue (at=%v seq=%d), reference (at=%v seq=%d)",
			ev.at, ev.seq, ref.at, ref.seq)
	}
	return ev.at, ev.seq
}

// driveDifferential feeds an op stream to the production queue and the
// retained container/heap reference and asserts identical pop order.
// Each byte chooses push vs pop; pushed times derive from the following
// bytes so the fuzzer controls the schedule shape, including heavy
// same-instant ties (where only seq breaks the order).
func driveDifferential(t testing.TB, ops []byte) {
	var q eventQueue
	var r refQueue
	var seq uint64
	var now Time
	i := 0
	next := func() byte {
		if i >= len(ops) {
			return 0
		}
		b := ops[i]
		i++
		return b
	}
	for i < len(ops) {
		b := next()
		if b&3 != 0 || q.len() == 0 {
			// Push: delta packs into 1 byte, with bit 7 selecting a
			// zero delta to force (at, seq) ties.
			d := Time(b >> 3)
			if b&4 != 0 {
				d = 0
			}
			seq++
			q.push(event{at: now + d, seq: seq})
			heap.Push(&r, &refEvent{at: now + d, seq: seq})
		} else {
			at, _ := popBoth(t, &q, &r)
			now = at
		}
	}
	// Drain: the full remaining pop streams must match too.
	for q.len() > 0 {
		popBoth(t, &q, &r)
	}
	if r.Len() != 0 {
		t.Fatalf("reference queue has %d events left after new queue drained", r.Len())
	}
}

// TestQueueDifferential drives randomized schedule/pop workloads
// through both queue implementations across many seeds.
func TestQueueDifferential(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 4096)
		rng.Read(ops)
		driveDifferential(t, ops)
	}
}

// TestHoldMatchesReference pins the hold-model drivers (the benchmark
// workload behind BenchmarkSimCore and BenchmarkSimCoreRef) to each
// other: same events, same final time, same pop-order checksum.
func TestHoldMatchesReference(t *testing.T) {
	for _, tc := range []struct{ pending, ops int }{
		{1, 100}, {16, 1000}, {1024, 5000}, {4096, 4096},
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			got := Hold(tc.pending, tc.ops, seed)
			want := HoldRef(tc.pending, tc.ops, seed)
			if got != want {
				t.Fatalf("hold(%d,%d,seed=%d): new %+v != reference %+v",
					tc.pending, tc.ops, seed, got, want)
			}
		}
	}
}

// FuzzEventOrder is the fuzz form of the differential test: any op
// stream, however adversarial about (at, seq) ties and push/pop
// interleavings, must pop identically from both queues.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{4, 4, 4, 4, 0, 0, 0, 0}) // all-ties then drain
	rng := rand.New(rand.NewSource(42))
	big := make([]byte, 512)
	rng.Read(big)
	f.Add(big)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1<<16 {
			ops = ops[:1<<16]
		}
		driveDifferential(t, ops)
	})
}
