// Package sim is a stub of the simulator kernel, just deep enough for
// analyzer testdata to import it by path. The real package is one of
// fiberyield's runtime packages: calls into it re-enter the scheduler,
// so they count as yield points.
package sim

// Time is virtual simulation time.
type Time int64

// Event is a one-shot latch processes wait on.
type Event struct{}

// Fire fires the event now, waking all waiters (a scheduler entry).
func (ev *Event) Fire() {}
