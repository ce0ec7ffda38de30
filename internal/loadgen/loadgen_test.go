package loadgen

import (
	"testing"

	"biscuit/internal/device"
	"biscuit/internal/sim"
)

func TestLoadSlowsForegroundScan(t *testing.T) {
	env := sim.NewEnv()
	plat := device.New(env, device.DefaultConfig())
	var idle, loaded sim.Time
	var want float64 // the contention model's slowdown at 24 threads
	env.Spawn("fg", func(p *sim.Proc) {
		start := p.Now()
		plat.HostScan(p, 8<<20, 3.0)
		idle = p.Now() - start
		plat.SetHostLoad(24)
		want = plat.LoadFactor()
		start = p.Now()
		plat.HostScan(p, 8<<20, 3.0)
		loaded = p.Now() - start
		plat.SetHostLoad(0)
	})
	env.Run()
	ratio := float64(loaded) / float64(idle)
	if ratio < want*0.9 || ratio > want*1.1 {
		t.Fatalf("load slowdown %.2f, want ~%.2f", ratio, want)
	}
}

func TestNegativeThreadsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	env := sim.NewEnv()
	device.New(env, device.DefaultConfig()).SetHostLoad(-1)
}
