package loadgen

import (
	"testing"

	"biscuit/internal/device"
	"biscuit/internal/sim"
)

func TestLoadSlowsForegroundScan(t *testing.T) {
	env := sim.NewEnv()
	plat := device.New(env, device.DefaultConfig())
	lg := New(plat)
	var idle, loaded sim.Time
	var want float64 // the contention model's slowdown at 24 threads
	env.Spawn("fg", func(p *sim.Proc) {
		start := p.Now()
		plat.HostScan(p, 8<<20, 3.0)
		idle = p.Now() - start
		lg.Start(24)
		want = plat.LoadFactor()
		start = p.Now()
		plat.HostScan(p, 8<<20, 3.0)
		loaded = p.Now() - start
		lg.Stop()
	})
	env.Run()
	ratio := float64(loaded) / float64(idle)
	if ratio < want*0.9 || ratio > want*1.1 {
		t.Fatalf("load slowdown %.2f, want ~%.2f", ratio, want)
	}
}

func TestThreadAccounting(t *testing.T) {
	env := sim.NewEnv()
	plat := device.New(env, device.DefaultConfig())
	lg := New(plat)
	if lg.Threads() != 0 {
		t.Fatal("fresh generator must be idle")
	}
	lg.Start(12)
	if lg.Threads() != 12 || plat.HostLoad() != 12 {
		t.Fatalf("threads=%d load=%d", lg.Threads(), plat.HostLoad())
	}
	lg.Stop()
	if plat.HostLoad() != 0 {
		t.Fatal("stop must clear the load")
	}
}

func TestNegativeThreadsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	env := sim.NewEnv()
	New(device.New(env, device.DefaultConfig())).Start(-1)
}
