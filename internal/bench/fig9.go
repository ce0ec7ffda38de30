package bench

import (
	"io"
	"slices"

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

// paperFig9 is Fig. 9 and Table VI as the paper reports them.
var paperFig9 = Fig9{IdleW: 103, Conv: Fig9Trace{AvgW: 122, EnergyJ: 60.5e3}, Biscuit: Fig9Trace{AvgW: 136, EnergyJ: 12.2e3}}

// WriteMarkdown renders both runs and their energy ratio beside the paper's.
func (f Fig9) WriteMarkdown(w io.Writer) {
	row := func(name string, f Fig9, format func(float64) string) []string {
		cells := []string{name, format(f.IdleW)}
		for _, tr := range []Fig9Trace{f.Conv, f.Biscuit} {
			peak := slices.Max(append([]float64{0}, tr.Watts...))
			cells = append(cells, format(tr.ExecS), format(tr.AvgW), format(peak), format(tr.EnergyJ))
		}
		return append(cells, times(f.Conv.EnergyJ/f.Biscuit.EnergyJ))
	}
	table(w, []string{"Query 1", "idle (W)", "Conv (s)", "Conv avg (W)", "Conv peak (W)", "Conv (J)",
		"Biscuit (s)", "Biscuit avg (W)", "Biscuit peak (W)", "Biscuit (J)", "energy ratio"},
		row("paper", paperFig9, paperNum), row("measured", f, num))
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
