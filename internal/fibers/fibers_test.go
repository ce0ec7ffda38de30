package fibers

import (
	"testing"

	"biscuit/internal/sim"
)

func newRT(e *sim.Env, cores int) *Runtime {
	return New(e, Config{Cores: cores, Hz: 750e6, CSW: 2 * sim.Microsecond})
}

func TestFibersOfOneGroupSerializeOnCore(t *testing.T) {
	e := sim.NewEnv()
	rt := newRT(e, 2)
	g := rt.NewGroup()
	var ends []sim.Time
	for i := 0; i < 2; i++ {
		g.Go("f", func(f *Fiber) {
			f.ComputeTime(100 * sim.Microsecond)
			ends = append(ends, f.Proc().Now())
		})
	}
	e.Run()
	// Each fiber: 2us dispatch + 100us compute; second waits for first.
	if ends[0] != 102*sim.Microsecond || ends[1] != 204*sim.Microsecond {
		t.Fatalf("ends=%v, want [102us 204us]", ends)
	}
}

func TestGroupsOnDifferentCoresOverlap(t *testing.T) {
	e := sim.NewEnv()
	rt := newRT(e, 2)
	var ends []sim.Time
	for i := 0; i < 2; i++ {
		g := rt.NewGroup()
		g.Go("f", func(f *Fiber) {
			f.ComputeTime(100 * sim.Microsecond)
			ends = append(ends, f.Proc().Now())
		})
	}
	e.Run()
	if ends[0] != ends[1] {
		t.Fatalf("cross-core groups must overlap: %v", ends)
	}
}

func TestRoundRobinPlacement(t *testing.T) {
	e := sim.NewEnv()
	rt := newRT(e, 2)
	ids := []int{rt.NewGroup().CoreID(), rt.NewGroup().CoreID(), rt.NewGroup().CoreID()}
	if ids[0] == ids[1] || ids[0] != ids[2] {
		t.Fatalf("placement %v, want round-robin", ids)
	}
}

func TestBlockReleasesCore(t *testing.T) {
	e := sim.NewEnv()
	rt := newRT(e, 1)
	g := rt.NewGroup()
	ev := e.NewEvent()
	var order []string
	g.Go("blocker", func(f *Fiber) {
		f.Block(func(p *sim.Proc) { p.Wait(ev) })
		order = append(order, "blocker")
	})
	g.Go("worker", func(f *Fiber) {
		f.ComputeTime(50 * sim.Microsecond)
		order = append(order, "worker")
		ev.Fire()
	})
	e.Run()
	if len(order) != 2 || order[0] != "worker" {
		t.Fatalf("order=%v: blocked fiber must free the core", order)
	}
}

func TestYieldInterleaves(t *testing.T) {
	e := sim.NewEnv()
	rt := newRT(e, 1)
	g := rt.NewGroup()
	var order []string
	for _, name := range []string{"a", "b"} {
		g.Go(name, func(f *Fiber) {
			for i := 0; i < 2; i++ {
				order = append(order, name)
				f.Yield()
			}
		})
	}
	e.Run()
	want := []string{"a", "b", "a", "b"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order=%v, want %v", order, want)
		}
	}
}

func TestContextSwitchCostCharged(t *testing.T) {
	e := sim.NewEnv()
	rt := newRT(e, 1)
	g := rt.NewGroup()
	var end sim.Time
	g.Go("f", func(f *Fiber) {
		f.Yield()
		end = f.Proc().Now()
	})
	e.Run()
	// dispatch csw + yield csw = 4us
	if end != 4*sim.Microsecond {
		t.Fatalf("end=%v, want 4us", end)
	}
	if rt.Switches() != 2 {
		t.Fatalf("switches=%d, want 2", rt.Switches())
	}
}

func TestComputeChargesCycles(t *testing.T) {
	e := sim.NewEnv()
	rt := newRT(e, 1)
	g := rt.NewGroup()
	var end sim.Time
	g.Go("f", func(f *Fiber) {
		f.Compute(750) // 1us at 750MHz
		end = f.Proc().Now()
	})
	e.Run()
	if end != 3*sim.Microsecond { // 2us dispatch + 1us compute
		t.Fatalf("end=%v, want 3us", end)
	}
}

func TestJoinAndWaitIdle(t *testing.T) {
	e := sim.NewEnv()
	rt := newRT(e, 2)
	g := rt.NewGroup()
	var joined, idleAt sim.Time
	worker := g.Go("w", func(f *Fiber) { f.ComputeTime(100 * sim.Microsecond) })
	g.Go("j", func(f *Fiber) {
		f.Block(func(p *sim.Proc) { p.Wait(worker.Proc().Done()) })
		joined = f.Proc().Now()
	})
	e.Spawn("host", func(p *sim.Proc) {
		g.WaitIdle(p)
		idleAt = p.Now()
	})
	e.Run()
	if joined == 0 || idleAt < joined {
		t.Fatalf("joined=%v idleAt=%v", joined, idleAt)
	}
	if g.Live() != 0 {
		t.Fatalf("live=%d, want 0", g.Live())
	}
}
