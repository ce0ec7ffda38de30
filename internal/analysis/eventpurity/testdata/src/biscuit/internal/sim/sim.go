// Package sim is a stub of the simulator kernel, just deep enough for
// analyzer testdata to import it by path. The real package is exempt
// from eventpurity (its channels ARE the scheduler), and so is this
// stub, by the same path match.
package sim

// Time is virtual simulation time.
type Time int64

// SchedEvent describes one scheduler transition.
type SchedEvent struct{}

// Proc is a simulated host process.
type Proc struct{}

// Env is the simulation environment.
type Env struct {
	schedHook func(SchedEvent)
}

// After schedules fn to run once at now+d. fn runs in scheduler
// context and must be pure.
func (e *Env) After(d Time, fn func()) {}

// SetSchedHook installs a hook invoked on every scheduler transition;
// it must be pure.
func (e *Env) SetSchedHook(fn func(SchedEvent)) { e.schedHook = fn }

// Spawn starts a host-side process. Process bodies are host code and
// may print progress; they are deliberately NOT eventpurity roots.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc { return nil }

// Event is a one-shot latch processes wait on.
type Event struct{ env *Env }

// NewEvent returns an unfired event.
func (e *Env) NewEvent() *Event { return &Event{env: e} }

// Fire fires the event now, waking all waiters.
func (ev *Event) Fire() {}
