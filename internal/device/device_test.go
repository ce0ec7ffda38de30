package device

import (
	"testing"

	"biscuit/internal/sim"
)

func TestDefaultConfigAssembles(t *testing.T) {
	env := sim.NewEnv()
	p := New(env, DefaultConfig())
	if p.HostCPU.Threads() != 24 {
		t.Fatalf("host threads %d", p.HostCPU.Threads())
	}
	if p.DevRT.Cores() != 2 {
		t.Fatalf("device cores %d", p.DevRT.Cores())
	}
	if p.FTL.Capacity() < 100<<30 {
		t.Fatalf("capacity %d < 100 GiB working set", p.FTL.Capacity())
	}
	if p.DevMem.System.Size() == 0 || p.DevMem.User.Size() == 0 {
		t.Fatal("device heaps missing")
	}
}

func TestInternalReadAddsRuntimeOverhead(t *testing.T) {
	env := sim.NewEnv()
	cfg := DefaultConfig()
	cfg.NAND.BlocksPerDie = 32
	cfg.NAND.PagesPerBlock = 16
	p := New(env, cfg)
	var ftlT, internalT sim.Time
	env.Spawn("x", func(pr *sim.Proc) {
		p.FTL.WriteRange(pr, 0, make([]byte, 4096))
		start := pr.Now()
		p.FTL.ReadRange(pr, 0, 4096)
		ftlT = pr.Now() - start
		start = pr.Now()
		p.InternalRead(pr, 0, 4096)
		internalT = pr.Now() - start
	})
	env.Run()
	if internalT != ftlT+InternalReadOverhead {
		t.Fatalf("internal %v, want ftl %v + overhead %v", internalT, ftlT, InternalReadOverhead)
	}
}

func TestLoadFactorLinear(t *testing.T) {
	env := sim.NewEnv()
	p := New(env, DefaultConfig())
	if lf := p.LoadFactor(); lf != 1 {
		t.Fatalf("idle load factor %v", lf)
	}
	p.SetHostLoad(24)
	want := 1 + memContentionAlpha*24
	if lf := p.LoadFactor(); lf != want {
		t.Fatalf("load factor %v, want %v", lf, want)
	}
	p.SetHostLoad(0)
}

func TestHostScanCPUvsMemoryBound(t *testing.T) {
	env := sim.NewEnv()
	p := New(env, DefaultConfig())
	var cpuBound, memBound sim.Time
	env.Spawn("x", func(pr *sim.Proc) {
		start := pr.Now()
		p.HostScan(pr, 1<<20, 10) // 10 cpb: CPU bound
		cpuBound = pr.Now() - start
		start = pr.Now()
		p.HostScan(pr, 1<<20, 0.01) // memory bound
		memBound = pr.Now() - start
	})
	env.Run()
	wantCPU := sim.Time(float64(1<<20) * 10 / hostHz * float64(sim.Second))
	if d := cpuBound - wantCPU; d < -sim.Microsecond || d > sim.Microsecond {
		t.Fatalf("cpu-bound scan %v, want ~%v", cpuBound, wantCPU)
	}
	wantMem := sim.TransferTime(1<<20, hostMemBW)
	if d := memBound - wantMem; d < -sim.Microsecond || d > sim.Microsecond {
		t.Fatalf("mem-bound scan %v, want ~%v", memBound, wantMem)
	}
}
