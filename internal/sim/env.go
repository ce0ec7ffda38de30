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
// and its global scheduling sequence number.
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

// event is one pending queue entry: a typed wake target (start or
// resume a process) or a general action closure. The typed target
// exists so the hot park/resume path schedules a plain value instead of
// allocating a resume closure per dispatch.
type event struct {
	at   Time
	seq  uint64
	proc *Proc  // wake target: start or resume this process
	fn   func() // general action (After callbacks)
}

// before reports whether a fires before b. (at, seq) is a strict total
// order because seq is unique, so any correct min-heap pops events in
// exactly the same order (guarded by the differential tests against
// the container/heap refQueue and by TestTraceDeterministic).
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is the pending-event priority queue: a binary min-heap of
// event values. Events live by value, so a push writes into the reused
// backing array: a warmed queue never allocates.
type eventQueue []event

func (q eventQueue) len() int { return len(q) }

// push inserts ev, sifting it up from the end.
func (q *eventQueue) push(ev event) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	*q = h
}

// pop removes and returns the earliest pending event. It must not be
// called on an empty queue.
func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	// Clear the vacated slot so it does not keep a closure or process
	// alive until the slot is reused.
	h[n] = event{}
	h = h[:n]
	*q = h
	if n == 0 {
		return top
	}
	// Sift the displaced last event down from the root.
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = last
	return top
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
func (e *Env) Run() {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for e.eq.len() > 0 {
		ev := e.eq.pop()
		e.now = ev.at
		if e.schedHook != nil {
			e.schedHook(SchedEvent{At: ev.at, Seq: ev.seq})
		}
		if ev.proc != nil {
			// Typed wake: switch into the process until it parks
			// again (or terminates).
			ev.proc.dispatch()
		} else {
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
