package sim

import (
	"fmt"
	"runtime"
)

// Env is a simulation environment: a virtual clock plus the pending-event
// queue that drives it. An Env and everything attached to it must be used
// from a single thread of control: the goroutine calling Run, which
// switches into each simulation process as a coroutine and gets control
// back when the process parks — nothing ever runs in parallel with it.
type Env struct {
	now Time
	eq  eventQueue
	seq uint64

	pool *workerPool // idle process workers; released when the Env is collected

	// waiterPool recycles Event waiter slices (see Event.fire) so that
	// the steady-state wait/fire cycle never allocates.
	waiterPool [][]*Proc

	running   bool
	nprocs    int
	panicV    any
	schedHook func(SchedEvent)
}

// SchedEvent describes one scheduler dispatch: the event's firing time
// and its global scheduling sequence number. It is the structured form
// of the old SetTrace debug string.
type SchedEvent struct {
	At  Time
	Seq uint64
}

// NewEnv returns an empty environment at virtual time zero.
func NewEnv() *Env {
	e := &Env{pool: new(workerPool)}
	runtime.AddCleanup(e, (*workerPool).stopAll, e.pool)
	return e
}

// Now reports the current virtual time.
func (e *Env) Now() Time { return e.now }

// SetSchedHook installs fn to receive one structured SchedEvent per
// scheduler dispatch. A nil fn disables the hook. The hook runs in
// scheduler context and must not block.
func (e *Env) SetSchedHook(fn func(SchedEvent)) { e.schedHook = fn }

// SetTrace installs fn to receive one formatted line per scheduler
// action, for debugging. A nil fn disables tracing. It is a thin
// string adapter over SetSchedHook (and displaces any hook installed
// there).
func (e *Env) SetTrace(fn func(string)) {
	if fn == nil {
		e.schedHook = nil
		return
	}
	e.schedHook = func(ev SchedEvent) {
		fn(fmt.Sprintf("t=%v seq=%d", ev.At, ev.Seq))
	}
}

// event is one pending queue entry. Exactly one of the three targets is
// set: a typed wake target (start or resume a process), a typed fire
// target (fire a latched event), or a general action closure. The typed
// targets exist so the hot park/resume and wait/fire paths schedule a
// plain value instead of allocating a resume closure per dispatch.
type event struct {
	at   Time
	seq  uint64
	proc *Proc  // wake target: start or resume this process
	ev   *Event // fire target: fire this event
	fn   func() // general action (After callbacks)
}

// heapEntry is one node of the scheduling heap: the full (at, seq)
// ordering key plus the slab slot of the event payload. Caching the
// key in the node means ordering never dereferences the slab — every
// comparison during a sift reads memory that is contiguous with the
// node being sifted, which is what makes deep queues fast.
type heapEntry struct {
	at   Time
	seq  uint64
	slot int32
}

// eventQueue is the pending-event priority queue: a flat 4-ary min-heap
// of (at, seq, slot) keys over a value slab of event payloads, with a
// free list recycling slab slots.
//
// The layout is chosen for the steady-state path. Events live by value
// in slab, so pushing one writes a recycled slot instead of allocating
// a heap-boxed node (the old container/heap of *event paid one
// allocation plus an interface conversion per schedule, and every
// comparison chased a pointer). The heap itself is a flat array of
// 24-byte keyed entries — sift operations compare and move entries in
// place with no indirection and no dynamic dispatch — and the 4-ary
// fanout halves the tree depth against a binary heap, with each
// node's four children sharing cache lines. free recycles slab slots
// so a warmed queue never grows.
//
// Because (at, seq) is a strict total order (seq is unique), any
// correct min-heap pops events in exactly the same order, so swapping
// the implementation cannot perturb a seeded trace by even one byte
// (guarded by the differential tests against the retained refQueue and
// by TestTraceDeterministic).
type eventQueue struct {
	slab []event     // slot-addressed event payloads
	free []int32     // recycled slab slots
	heap []heapEntry // 4-ary min-heap keyed by (at, seq)
}

func (q *eventQueue) len() int { return len(q.heap) }

func entryLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts ev, reusing a free slab slot when one exists.
func (q *eventQueue) push(ev event) {
	var slot int32
	if n := len(q.free) - 1; n >= 0 {
		slot = q.free[n]
		q.free = q.free[:n]
	} else {
		slot = int32(len(q.slab))
		q.slab = append(q.slab, event{})
	}
	q.slab[slot] = ev
	// Sift the new entry up with the hole technique: shift losing
	// parents down and store the entry once at its final position.
	e := heapEntry{at: ev.at, seq: ev.seq, slot: slot}
	i := len(q.heap)
	q.heap = append(q.heap, e)
	h := q.heap
	for i > 0 {
		parent := (i - 1) >> 2
		if !entryLess(e, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// minAt returns the firing time of the earliest pending event. It must
// not be called on an empty queue.
func (q *eventQueue) minAt() Time {
	return q.heap[0].at
}

// pop removes and returns the earliest pending event, recycling its
// slab slot.
func (q *eventQueue) pop() event {
	h := q.heap
	slot := h[0].slot
	ev := q.slab[slot]
	// Clear pointer fields so the freed slot does not retain the
	// closure or its captures until the slot is reused.
	q.slab[slot] = event{}
	q.free = append(q.free, slot)

	last := h[len(h)-1]
	q.heap = h[:len(h)-1]
	h = q.heap
	n := len(h)
	if n == 0 {
		return ev
	}
	// Sift the displaced last entry down from the root.
	i := 0
	for {
		child := i<<2 + 1
		if child >= n {
			break
		}
		best := child
		end := child + 4
		if end > n {
			end = n
		}
		for c := child + 1; c < end; c++ {
			if entryLess(h[c], h[best]) {
				best = c
			}
		}
		if !entryLess(h[best], last) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = last
	return ev
}

// put stamps ev with the next sequence number and queues it at at.
func (e *Env) put(at Time, ev event) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past: %v < %v", at, e.now))
	}
	e.seq++
	ev.at = at
	ev.seq = e.seq
	e.eq.push(ev)
}

// scheduleWake queues a typed wake target: at time at the scheduler
// resumes p directly, with no closure in between.
func (e *Env) scheduleWake(at Time, p *Proc) {
	e.put(at, event{proc: p})
}

// scheduleFire queues a typed fire target: at time at the scheduler
// fires ev (a no-op if it already fired by then).
func (e *Env) scheduleFire(at Time, ev *Event) {
	e.put(at, event{ev: ev})
}

// After queues fn to run after delay d. It runs in the scheduler's
// context and must not block.
func (e *Env) After(d Time, fn func()) {
	e.put(e.now+d, event{fn: fn})
}

// getWaiters takes a recycled waiter slice (empty, non-nil) or makes a
// fresh one.
func (e *Env) getWaiters() []*Proc {
	if n := len(e.waiterPool) - 1; n >= 0 {
		w := e.waiterPool[n]
		e.waiterPool[n] = nil
		e.waiterPool = e.waiterPool[:n]
		return w
	}
	return make([]*Proc, 0, 4)
}

// putWaiters recycles a waiter slice whose waiters have been woken.
func (e *Env) putWaiters(w []*Proc) {
	for i := range w {
		w[i] = nil
	}
	e.waiterPool = append(e.waiterPool, w[:0])
}

// Run executes the simulation until no events remain. It panics with the
// original value if any process panicked.
func (e *Env) Run() { e.RunUntil(1<<63 - 1) }

// RunUntil executes the simulation until no events remain or the next
// event is later than deadline. The clock never advances past deadline.
func (e *Env) RunUntil(deadline Time) {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for e.eq.len() > 0 {
		if e.eq.minAt() > deadline {
			e.now = deadline
			return
		}
		ev := e.eq.pop()
		e.now = ev.at
		if e.schedHook != nil {
			e.schedHook(SchedEvent{At: ev.at, Seq: ev.seq})
		}
		switch {
		case ev.proc != nil:
			// Typed wake: switch into the process until it parks
			// again (or terminates).
			ev.proc.dispatch()
		case ev.ev != nil:
			ev.ev.fire()
		default:
			ev.fn()
		}
		if e.panicV != nil {
			v := e.panicV
			e.panicV = nil
			panic(v)
		}
	}
}

// Idle reports whether no events are pending.
func (e *Env) Idle() bool { return e.eq.len() == 0 }

// NumProcs reports the number of live (spawned, unfinished) processes.
func (e *Env) NumProcs() int { return e.nprocs }
