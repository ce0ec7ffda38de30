package bench

import (
	"biscuit"
	"biscuit/internal/power"
	"biscuit/internal/sim"
)

// Fig9Trace is one power trace (Fig. 9) plus its integrals (Table VI).
type Fig9Trace struct {
	Times   []sim.Time
	Watts   []float64
	AvgW    float64
	EnergyJ float64
	ExecS   float64
}

// Fig9 reproduces Fig. 9 and Table VI: system power during Fig. 8's
// Query 1 under Conv and Biscuit, including the post-query settling
// window the paper notes (buffer-cache synchronization).
type Fig9 struct {
	IdleW         float64
	Conv, Biscuit Fig9Trace
}

// RunFig9 measures both runs on fresh systems so traces do not overlap.
func RunFig9(cfg Config) Fig9 {
	out := Fig9{IdleW: power.Default().IdleW}
	for _, offload := range []bool{false, true} {
		sys := newSystem()
		data := loadTPCH(sys, cfg.SF)
		var trace Fig9Trace
		sys.Run(func(h *biscuit.Host) {
			runFig8Query(h, data, 1, offload) // warmup (module load, catalog)
			meter := power.NewMeter(h.System().Plat, power.Default())
			stop := h.System().Env.NewEvent()
			meter.Run(500*sim.Microsecond, stop)
			h.Proc().Sleep(2 * sim.Millisecond) // idle lead-in
			execT, _ := runFig8Query(h, data, 1, offload)
			// Post-query work (cache/buffer synchronization) before the
			// system returns to idle, as the paper observes.
			host := h.System().Plat.HostCPU
			host.Exec(h.Proc(), 0.3*execT.Seconds()*host.Hz())
			h.Proc().Sleep(2 * sim.Millisecond) // idle tail
			stop.Fire()
			trace = Fig9Trace{Times: meter.Times, Watts: meter.Watts,
				AvgW: meter.AvgW(), EnergyJ: meter.EnergyJ(), ExecS: execT.Seconds()}
		})
		if offload {
			out.Biscuit = trace
		} else {
			out.Conv = trace
		}
	}
	return out
}
