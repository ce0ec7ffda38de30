// Package evloop exercises the event-purity check.
package evloop

import (
	"sync"

	"biscuit/internal/core"
	"biscuit/internal/fibers"
	"biscuit/internal/sim"

	"helpers"
)

func register(env *sim.Env, g *fibers.Group) {
	// Impure literal: wall-clock sleep inside an event callback.
	env.After(10, func() { // want `callback passed to sim.Env.After must stay pure .* calls time.Sleep`
		sleepy()
	})

	// Pure literal: fine.
	total := 0
	env.After(20, func() {
		total += helpers.Pure(total)
	})

	// Named in-package impure callback.
	env.After(30, badNamed) // want `callback passed to sim.Env.After must stay pure .* receives from a channel`

	// Scheduler hook printing via host streams — here a channel send.
	env.SetSchedHook(func(ev sim.SchedEvent) { // want `callback passed to sim.Env.SetSchedHook must stay pure .* sends on a channel`
		events <- ev
	})

	// Fiber body taking a sync lock.
	g.Go("worker", func(f *fibers.Fiber) { // want `callback passed to fibers.Group.Go must stay pure .* uses sync.Lock`
		mu.Lock()
		defer mu.Unlock()
		f.Yield()
	})

	// Cross-package: helpers.Blocker's impurity arrives as a fact.
	env.After(40, helpers.Blocker) // want `callback passed to sim.Env.After must stay pure .* time.Sleep`

	// Cross-package and transitive: the literal calls helpers.Deep,
	// whose fact already embeds the chain down to time.Sleep.
	env.After(50, func() { // want `callback passed to sim.Env.After must stay pure .* calls helpers.Deep .* time.Sleep`
		helpers.Deep()
	})

	// Transitive in-package: wrapper -> badNamed -> channel receive.
	env.After(60, wrapper) // want `callback passed to sim.Env.After must stay pure .* calls evloop.badNamed`

	// Spawn bodies are host processes, not eventpurity roots.
	env.Spawn("driver", func(p *sim.Proc) {
		events <- sim.SchedEvent{}
	})

	// An event callback that only fires an event stays pure: the pure
	// way to build a timeout, and nothing for this analyzer to flag.
	done := env.NewEvent()
	env.After(80, done.Fire)
	env.After(90, func() {
		done.Fire()
	})

	// Reasoned suppression waives the check.
	//biscuitvet:ignore eventpurity: replay harness, runs outside determinism scope
	env.After(70, badNamed)
}

var (
	events = make(chan sim.SchedEvent, 1)
	mu     sync.Mutex
)

func sleepy() { helpers.Blocker() }

func badNamed() { <-events }

func wrapper() { badNamed() }

// process runs on a simulated device core and selects on a host
// channel: impure.
func process(c *core.Context, ch chan int) { // want `device function process must stay pure .* selects on channels`
	select {
	case <-ch:
	default:
	}
	c.Compute(1)
}

// crunch is pure device code: fine.
func crunch(c *core.Context, data []byte) int {
	sum := 0
	for _, b := range data {
		sum += int(b)
	}
	c.Compute(float64(len(data)))
	return sum
}

// launch starts a goroutine from device code: impure.
func launch(c *core.Context) { // want `device function launch must stay pure .* starts a goroutine`
	go func() {}()
}
