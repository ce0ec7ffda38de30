package sim

import "testing"

// The DES core's steady-state invariant (DESIGN.md "Simulator
// performance"): once the event-queue slab and the waiter pools are
// warm, scheduling and dispatching events allocates nothing. These
// tests enforce it with testing.AllocsPerRun so a regression fails
// `go test`, not just a benchmark eyeball.

// TestAfterZeroAlloc: the timer path (After with a reused callback,
// then dispatch) is exactly zero allocations per event once the slab
// has grown to the working-set size (AllocsPerRun's untracked warmup
// call takes care of that).
func TestAfterZeroAlloc(t *testing.T) {
	e := NewEnv()
	count := 0
	fn := func() { count++ }
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 1000; i++ {
			e.After(Time(i%37), fn)
		}
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("After/dispatch cycle allocated %.0f times per 1000 events, want 0", allocs)
	}
}

// TestSleepZeroAllocSteadyState: a process sleeping in a loop (the
// typed-wake park/resume path) must not allocate per sleep. The spawn
// itself (proc struct, done event, one first-time worker) is allowed a
// small fixed budget; 100k sleeps inside it prove the per-op cost is
// zero.
func TestSleepZeroAllocSteadyState(t *testing.T) {
	const ops = 100000
	allocs := testing.AllocsPerRun(1, func() {
		e := NewEnv()
		e.Spawn("sleeper", func(p *Proc) {
			for i := 0; i < ops; i++ {
				p.Sleep(1)
			}
		})
		e.Run()
	})
	if allocs > 64 {
		t.Fatalf("run with %d sleeps allocated %.0f times (budget 64: spawn overhead only)", ops, allocs)
	}
}

// TestYieldZeroAllocSteadyState: two processes yielding back and forth
// (wake + park, both typed) must not allocate per yield.
func TestYieldZeroAllocSteadyState(t *testing.T) {
	const ops = 50000
	allocs := testing.AllocsPerRun(1, func() {
		e := NewEnv()
		for i := 0; i < 2; i++ {
			e.Spawn("yielder", func(p *Proc) {
				for j := 0; j < ops; j++ {
					p.Yield()
				}
			})
		}
		e.Run()
	})
	if allocs > 64 {
		t.Fatalf("run with %d yields allocated %.0f times (budget 64: spawn overhead only)", 2*ops, allocs)
	}
}

// eventFireRun waits on and fires m one-shot events between two
// processes, returning total allocations for the run.
func eventFireRun(m int) float64 {
	return testing.AllocsPerRun(1, func() {
		e := NewEnv()
		evs := make([]*Event, m)
		for i := range evs {
			evs[i] = e.NewEvent()
		}
		e.Spawn("waiter", func(p *Proc) {
			for _, ev := range evs {
				p.Wait(ev)
			}
		})
		e.Spawn("firer", func(p *Proc) {
			for _, ev := range evs {
				p.Sleep(1)
				ev.Fire()
			}
		})
		e.Run()
	})
}

// TestEventFireZeroAllocMarginal: events are one-shot, so a fire
// workload necessarily creates its events — but Wait, Fire and the
// typed wake behind them must add nothing on top. Doubling the number
// of fires must cost exactly the extra NewEvent allocations (one per
// event: the slice header comes from the env's waiter pool), proving
// the marginal cost of wait+fire+wake is zero.
func TestEventFireZeroAllocMarginal(t *testing.T) {
	const m = 20000
	base, double := eventFireRun(m), eventFireRun(2*m)
	marginal := double - base - m // expected: m extra NewEvent allocs
	if marginal > 16 {
		t.Fatalf("marginal cost of %d extra wait/fire cycles is %.0f allocs beyond NewEvent, want 0 (base=%.0f double=%.0f)",
			m, marginal, base, double)
	}
}

// TestResourceZeroAllocSteadyState: the contended acquire/release cycle
// (FIFO wait queue churn included) reuses the waiter array. The budget
// is the fresh Env's three first-time workers: a cold worker costs about
// 16 allocations on top of its tenant's Proc and done Event (12 to make
// it — iter.Pull boxes its captured variables and builds its closures,
// the coroutine and its goroutine; ours adds the worker and its loop —
// and the rest on its first switch-in). Measured 89 in all; a warm Env
// pays 2 per spawn (TestWarmSpawnAllocatesProcAndDoneOnly).
func TestResourceZeroAllocSteadyState(t *testing.T) {
	const ops = 20000
	allocs := testing.AllocsPerRun(1, func() {
		e := NewEnv()
		r := e.NewResource("r", 1)
		for i := 0; i < 3; i++ {
			e.Spawn("user", func(p *Proc) {
				for j := 0; j < ops; j++ {
					r.Acquire(p)
					p.Sleep(1)
					r.Release()
				}
			})
		}
		e.Run()
	})
	if allocs > 96 {
		t.Fatalf("run with %d contended acquire/release cycles allocated %.0f times (budget 96: three cold workers)", 3*ops, allocs)
	}
}
