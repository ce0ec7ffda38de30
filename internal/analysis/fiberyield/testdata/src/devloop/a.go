// Package devloop exercises the scheduler-starvation check.
package devloop

import (
	"biscuit/internal/core"
	"biscuit/internal/sim"
)

// Context mirrors the public biscuit.Context alias: the analyzer must
// see through it to the core type.
type Context = core.Context

func busySpin(c *core.Context, work []int) {
	for { // want `unconditional loop in device function busySpin never calls into the fiber runtime`
		if len(work) == 0 {
			break
		}
		work = work[1:]
	}
}

func drainWithCompute(c *core.Context, work []int) {
	for { // yields via Compute: fine
		if len(work) == 0 {
			break
		}
		c.Compute(10)
		work = work[1:]
	}
}

func drainPort(c *core.Context, p *core.OutPort) {
	for { // yields via port Put: fine
		if !p.Put(1) {
			break
		}
	}
}

func readLoop(c *core.Context, f *core.File) error {
	buf := make([]byte, 16)
	for { // yields via ReadFile: fine
		n, err := c.ReadFile(f, 0, buf)
		if err != nil || n == 0 {
			return err
		}
	}
}

func viaAlias(c *Context) {
	for { // want `unconditional loop in device function viaAlias`
		continue
	}
}

func viaHelper(c *core.Context) {
	for { // forwards the context to a helper, which is checked itself: fine
		if !step(c) {
			break
		}
	}
}

func step(c *core.Context) bool {
	c.Yield()
	return false
}

func nestedClosure(c *core.Context) {
	f := func() {
		for { // want `unconditional loop in device function nestedClosure`
			break
		}
	}
	f()
}

func fireTimeouts(c *core.Context, done *sim.Event, work []int) {
	for { // sim.Event.FireAfter is a typed scheduler entry: a yield point, fine
		if len(work) == 0 {
			done.Fire()
			break
		}
		done.FireAfter(sim.Time(len(work)))
		work = work[1:]
	}
}

func conditionalLoop(c *core.Context, n int) {
	for n > 0 { // conditional loops are out of scope
		n--
	}
}

func hostCode(work []int) int {
	total := 0
	for { // no Context parameter: host code, out of scope
		if len(work) == 0 {
			return total
		}
		total += work[0]
		work = work[1:]
	}
}

func suppressed(c *core.Context) {
	//biscuitvet:fiberyield-ok — every path returns after one iteration
	for {
		return
	}
}
