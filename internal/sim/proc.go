package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulation process: a body function whose execution is
// serialized by the environment's scheduler. A Proc runs until it blocks
// in one of the kernel primitives (Sleep, Wait, Resource.Acquire, ...),
// at which point control returns to the scheduler; it is resumed when
// the event it blocks on fires.
type Proc struct {
	env  *Env
	name string
	fn   func(p *Proc) // the body, until the first dispatch starts it
	w    *worker       // the coroutine running the body, from first dispatch to exit
	done *Event
}

// worker is a coroutine (iter.Pull) that runs process bodies, one tenant
// at a time: next switches from the scheduler into it and yield switches
// back (runtime.coroswitch: no run queue, no thread wake-up).
type worker struct {
	p     *Proc // tenant; nil while idle, so an idle worker does not hold its Env
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()
}

// workerPool is an Env's idle workers, in an allocation of its own so
// that the Env's cleanup can reach them without reaching the Env.
type workerPool struct{ idle []*worker }

// get takes an idle worker, grown stack included, or makes one.
func (wp *workerPool) get() *worker {
	if n := len(wp.idle) - 1; n >= 0 {
		w := wp.idle[n]
		wp.idle = wp.idle[:n]
		return w
	}
	w := new(worker)
	w.next, w.stop = iter.Pull(func(yield func(struct{}) bool) {
		w.yield = yield
		for ok := true; ok; ok = yield(struct{}{}) { // false: stopped by stopAll
			w.p.run() // a runtime.Goexit in the body ends the worker here, unpooled
			w.p = nil
			wp.idle = append(wp.idle, w)
		}
	})
	return w
}

// stopAll is the Env's cleanup: an unreachable Env dispatches nothing,
// and every worker of it that is not blocked inside a body is idle.
func (wp *workerPool) stopAll() {
	for _, w := range wp.idle {
		w.stop()
	}
}

// Spawn creates a process named name running fn, starting at the current
// virtual time. It may be called before Run or from inside another
// process.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAt(e.now, name, fn)
}

// SpawnAt creates a process that starts at absolute virtual time at. The
// start is an ordinary typed wake (see dispatch).
func (e *Env) SpawnAt(at Time, name string, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name, fn: fn, done: e.NewEvent()}
	e.nprocs++
	e.scheduleWake(at, p)
	return p
}

// dispatch switches from the scheduler into p, starting its body on a
// pooled worker the first time, and returns when p parks or finishes.
func (p *Proc) dispatch() {
	if p.w == nil {
		if p.fn == nil { // its old worker may be running someone else by now
			panic(fmt.Sprintf("sim: wake of finished process %q", p.name))
		}
		p.w = p.env.pool.get()
		p.w.p = p
	}
	p.w.next()
}

// run executes the body on the calling worker.
func (p *Proc) run() {
	fn := p.fn
	p.fn = nil
	defer func() {
		if v := recover(); v != nil {
			p.env.panicV = fmt.Sprintf("sim: process %q panicked: %v", p.name, v)
		}
		p.w = nil
		p.env.nprocs--
		p.done.fire()
	}()
	fn(p)
}

// park switches back to the scheduler and returns when p is next woken.
func (p *Proc) park() { p.w.yield(struct{}{}) }

// wake schedules p to resume at the current virtual time. It must be
// called at most once per park. The wake is a typed scheduler target,
// not a closure, so waking is allocation-free.
func (p *Proc) wake() {
	p.env.scheduleWake(p.env.now, p)
}

// Env returns the environment the process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Name returns the process name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Done returns an event fired when the process function returns.
func (p *Proc) Done() *Event { return p.done }

// Sleep suspends the process for virtual duration d (clamped at zero).
func (p *Proc) Sleep(d Time) {
	if d <= 0 {
		// Even a zero-length sleep is a scheduling point; keep it cheap
		// but still deterministic by not yielding at all.
		return
	}
	p.env.scheduleWake(p.env.now+d, p)
	p.park()
}

// Yield reschedules the process at the current time behind any events
// already queued for this instant, giving other ready processes a turn.
func (p *Proc) Yield() {
	p.wake()
	p.park()
}

// Event is a broadcast condition in virtual time. Once fired it stays
// fired: later Waits return immediately.
type Event struct {
	env     *Env
	fired   bool
	waiters []*Proc
}

// NewEvent returns a fresh, unfired event.
func (e *Env) NewEvent() *Event { return &Event{env: e} }

// Fired reports whether the event has fired.
func (ev *Event) Fired() bool { return ev.fired }

// Fire wakes all current waiters at the current virtual time and marks
// the event fired. Firing twice is a no-op.
func (ev *Event) Fire() { ev.fire() }

func (ev *Event) fire() {
	if ev.fired {
		return
	}
	ev.fired = true
	for _, w := range ev.waiters {
		w.wake()
	}
	if ev.waiters != nil {
		ev.env.putWaiters(ev.waiters)
		ev.waiters = nil
	}
}

// Wait blocks p until the event fires. Returns immediately if already
// fired.
func (p *Proc) Wait(ev *Event) {
	if ev.fired {
		return
	}
	if ev.waiters == nil {
		ev.waiters = ev.env.getWaiters()
	}
	ev.waiters = append(ev.waiters, p)
	p.park()
}

// WaitAll blocks until every event in evs has fired.
func (p *Proc) WaitAll(evs ...*Event) {
	for _, ev := range evs {
		p.Wait(ev)
	}
}
