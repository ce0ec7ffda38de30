package sim

import (
	"runtime"
	"slices"
	"testing"
)

// The worker pool's contract (DESIGN.md §9 "The handoff"): a process
// body runs on a pooled coroutine, the pool lives as long as its Env and
// no longer, and a worker that has moved on to its next tenant can never
// be resumed through a stale handle to the previous one.

// settleGoroutines collects until the goroutine count is back at want
// (cleanups run on their own goroutine after a GC cycle) or gives up.
func settleGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 50 && n > want; i++ {
		runtime.GC()
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}

// TestWorkersDieWithTheirEnv: 1000 concurrently live Procs force 1000
// workers per Env; once the Envs are dropped the cleanup stops them all.
func TestWorkersDieWithTheirEnv(t *testing.T) {
	const envs, procs = 20, 1000
	base := settleGoroutines(0)
	peak := 0
	for i := 0; i < envs; i++ {
		e := NewEnv()
		for j := 0; j < procs; j++ {
			e.Spawn("p", func(p *Proc) { p.Sleep(1) })
		}
		e.Run()
		if len(e.pool.idle) != procs {
			t.Fatalf("env %d: %d idle workers after Run, want %d", i, len(e.pool.idle), procs)
		}
		if n := runtime.NumGoroutine(); n > peak {
			peak = n
		}
	}
	if peak < base+procs {
		t.Fatalf("peak goroutines %d: %d live Procs should have needed %d workers", peak, procs, procs)
	}
	if n := settleGoroutines(base); n != base {
		t.Fatalf("goroutines %d → %d → %d: idle workers outlived their Envs", base, peak, n)
	}
}

// TestWarmSpawnAllocatesProcAndDoneOnly: on a warm Env a spawn/exit
// cycle allocates the Proc and its done Event and nothing else — no
// closure, no channel, no coroutine — and a later Run on the same Env
// reuses the one worker the first Run made.
func TestWarmSpawnAllocatesProcAndDoneOnly(t *testing.T) {
	e := NewEnv()
	body := func(p *Proc) { p.Sleep(1) }
	allocs := testing.AllocsPerRun(100, func() {
		e.Spawn("p", body)
		e.Run()
	})
	if allocs != 2 {
		t.Fatalf("warm spawn/exit allocated %.0f times, want 2 (Proc + done Event)", allocs)
	}
	if n := len(e.pool.idle); n != 1 {
		t.Fatalf("%d workers after 101 sequential Procs over 101 Runs, want 1", n)
	}
	w := e.pool.idle[0]
	for i := 0; i < 3; i++ {
		e.Spawn("p", body)
	}
	e.Run()
	if n := len(e.pool.idle); n != 3 {
		t.Fatalf("%d workers after 3 concurrent Procs, want 3", n)
	}
	if !slices.Contains(e.pool.idle, w) {
		t.Fatal("the warm worker was not reused")
	}
}

// TestGoexitInBodyEndsRunCaller: runtime.Goexit inside a body (what
// t.FailNow and t.Fatal do) unwinds the goroutine that called Run, as it
// would had the body been a plain call, and the dying worker is not
// offered to the next Spawn.
func TestGoexitInBodyEndsRunCaller(t *testing.T) {
	e := NewEnv()
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.Spawn("quitter", func(p *Proc) {
			p.Sleep(1)
			runtime.Goexit()
		})
		e.Run()
		returned = true
	}()
	<-done
	if returned {
		t.Fatal("Run returned after a Goexit in a process body")
	}
	if e.NumProcs() != 0 || len(e.pool.idle) != 0 {
		t.Fatalf("after Goexit: %d live procs, %d idle workers; want 0, 0", e.NumProcs(), len(e.pool.idle))
	}
	ran := false
	e.Spawn("next", func(p *Proc) { ran = true })
	e.Run()
	if !ran {
		t.Fatal("a Proc spawned after the Goexit did not run")
	}
}

// TestWakeOfFinishedProcPanics: a wake that outlives its Proc (a double
// wake, say) must not resume the worker's next tenant in the middle of
// whatever that one is parked on.
func TestWakeOfFinishedProcPanics(t *testing.T) {
	e := NewEnv()
	gone := e.Spawn("gone", func(p *Proc) {})
	e.Run()
	woken, release := 0, e.NewEvent()
	e.Spawn("tenant", func(p *Proc) {
		p.Wait(release) // parked on gone's old worker
		woken++
	})
	e.Run()
	gone.wake()
	defer func() {
		want := `sim: wake of finished process "gone"`
		if v := recover(); v != want {
			t.Fatalf("Run panicked with %v, want %q", v, want)
		}
		if woken != 0 {
			t.Fatal("the stale wake resumed the worker's next tenant")
		}
		release.Fire()
		e.Run()
		if woken != 1 {
			t.Fatal("the tenant did not survive the stale wake")
		}
	}()
	e.Run()
}
