package sim

import "container/heap"

// refQueue is the reference event queue: a binary container/heap of
// heap-boxed *refEvent nodes. It lives in a test file because it is the
// oracle the production queue is checked against and nothing else:
//
//   - the differential property test and FuzzEventOrder drive both
//     queues with identical workloads and assert identical pop order;
//   - Hold/HoldRef run the same hold-model workload on both, so
//     TestHoldMatchesReference pins their pop-order checksums to each
//     other and BenchmarkSimCore ÷ BenchmarkSimCoreRef reads as a
//     machine-normalized speedup of the value heap.
//
// Because (at, seq) is a strict total order, both queues must pop in
// exactly the same sequence; any divergence is a heap bug, never a
// tie-break artifact.
type refEvent struct {
	at  Time
	seq uint64
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() (popped any) {
	old := *q
	n := len(old)
	popped = old[n-1]
	*q = old[:n-1]
	return
}

// HoldResult digests one hold-model run over an event queue: the number
// of pop-push operations performed, the virtual time the queue reached,
// and an FNV-1a checksum folded over the (at, seq) pop stream. Events
// and Final are pure functions of (pending, ops, seed); Checksum
// additionally witnesses the exact pop order, so two implementations
// agree on it iff they dequeue identically.
type HoldResult struct {
	Events   int64
	Final    Time
	Checksum uint64
}

// holdRNG is a self-contained xorshift64* generator so the hold
// workload is identical across queue implementations and across
// machines (no dependency on math/rand stream evolution).
type holdRNG uint64

func (r *holdRNG) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = holdRNG(x)
	return x * 0x2545F4914F6CDD1D
}

// holdDelta returns the next event offset: a skewed mix of near-term
// and far-out timers, like a real platform's queue (mostly short NAND
// and port events, a tail of GC and scrub timers).
func holdDelta(r *holdRNG) Time {
	v := r.next()
	d := Time(v%1000) + 1
	if v&0xf == 0 {
		d *= 1000
	}
	return d
}

const fnvOffset, fnvPrime = 0xcbf29ce484222325, 0x100000001b3

func fnvFold(h uint64, at Time, seq uint64) uint64 {
	h = (h ^ uint64(at)) * fnvPrime
	h = (h ^ seq) * fnvPrime
	return h
}

// Hold runs the classic hold-model benchmark workload on the production
// queue: prefill pending events, then ops times pop the minimum,
// advance the clock to it, and push a replacement at a pseudorandom
// offset — the canonical DES-core kernel (queue size stays constant,
// every op is one dequeue plus one enqueue).
func Hold(pending, ops int, seed uint64) HoldResult {
	rng := holdRNG(seed | 1)
	var q eventQueue
	var seq uint64
	var now Time
	for i := 0; i < pending; i++ {
		seq++
		q.push(event{at: holdDelta(&rng), seq: seq})
	}
	h := uint64(fnvOffset)
	for i := 0; i < ops; i++ {
		ev := q.pop()
		now = ev.at
		h = fnvFold(h, ev.at, ev.seq)
		seq++
		q.push(event{at: now + holdDelta(&rng), seq: seq})
	}
	return HoldResult{Events: int64(ops), Final: now, Checksum: h}
}

// HoldRef runs the identical hold-model workload on the retained
// reference queue. Its HoldResult must equal Hold's for the same
// parameters.
func HoldRef(pending, ops int, seed uint64) HoldResult {
	rng := holdRNG(seed | 1)
	var q refQueue
	var seq uint64
	var now Time
	for i := 0; i < pending; i++ {
		seq++
		heap.Push(&q, &refEvent{at: holdDelta(&rng), seq: seq})
	}
	h := uint64(fnvOffset)
	for i := 0; i < ops; i++ {
		ev := q[0]
		heap.Pop(&q)
		now = ev.at
		h = fnvFold(h, ev.at, ev.seq)
		seq++
		heap.Push(&q, &refEvent{at: now + holdDelta(&rng), seq: seq})
	}
	return HoldResult{Events: int64(ops), Final: now, Checksum: h}
}
