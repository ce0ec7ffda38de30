package power

import (
	"testing"

	"biscuit/internal/device"
	"biscuit/internal/sim"
)

func TestIdleSystemDrawsIdlePower(t *testing.T) {
	env := sim.NewEnv()
	plat := device.New(env, device.DefaultConfig())
	m := NewMeter(plat)
	env.Spawn("idle", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(10 * sim.Millisecond)
			m.Sample()
		}
	})
	env.Run()
	for _, w := range m.Watts {
		if w != IdleW {
			t.Fatalf("idle power %v, want %v", w, IdleW)
		}
	}
	if got := m.AvgW(); got != IdleW {
		t.Fatalf("avg %v", got)
	}
}

func TestBusyHostRaisesPower(t *testing.T) {
	env := sim.NewEnv()
	plat := device.New(env, device.DefaultConfig())
	m := NewMeter(plat)
	env.Spawn("busy", func(p *sim.Proc) {
		// One thread busy for the whole window.
		plat.HostCPU.ExecTime(p, 50*sim.Millisecond)
		m.Sample()
	})
	env.Run()
	want := IdleW + hostW/float64(plat.HostCPU.Threads())
	if got := m.Watts[0]; got < want*0.99 || got > want*1.01 {
		t.Fatalf("busy power %v, want ~%v", got, want)
	}
}

func TestEnergyIntegral(t *testing.T) {
	env := sim.NewEnv()
	plat := device.New(env, device.DefaultConfig())
	m := NewMeter(plat)
	env.Spawn("idle", func(p *sim.Proc) {
		p.Sleep(sim.Second)
		m.Sample()
	})
	env.Run()
	// 1 s at idle power.
	want := IdleW
	if e := m.EnergyJ(); e < want*0.99 || e > want*1.01 {
		t.Fatalf("energy %v J, want ~%v", e, want)
	}
}

func TestMeterRunSamplesUntilStop(t *testing.T) {
	env := sim.NewEnv()
	plat := device.New(env, device.DefaultConfig())
	m := NewMeter(plat)
	stop := env.NewEvent()
	m.Run(5*sim.Millisecond, stop)
	env.Spawn("driver", func(p *sim.Proc) {
		p.Sleep(52 * sim.Millisecond)
		stop.Fire()
	})
	env.Run()
	if n := len(m.Times); n < 9 || n > 12 {
		t.Fatalf("samples=%d, want ~10", n)
	}
}

func TestSSDActivityRaisesPower(t *testing.T) {
	env := sim.NewEnv()
	cfg := device.DefaultConfig()
	cfg.NAND.BlocksPerDie = 64
	cfg.NAND.PagesPerBlock = 32
	plat := device.New(env, cfg)
	m := NewMeter(plat)
	env.Spawn("io", func(p *sim.Proc) {
		plat.FTL.WriteRange(p, 0, make([]byte, 4<<20))
		plat.FTL.ReadRange(p, 0, 4<<20)
		m.Sample()
	})
	env.Run()
	if m.Watts[0] <= IdleW {
		t.Fatalf("ssd activity power %v must exceed idle", m.Watts[0])
	}
}
