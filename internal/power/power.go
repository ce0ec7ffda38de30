// Package power models whole-system power draw (paper §V-C, Fig. 9 and
// Table VI): a wall-power meter sampling the server + SSD during query
// execution.
//
// P(t) = idle + cHost·uHost(t) + cSSD·uSSD(t), where uHost is host-CPU
// utilization and uSSD is SSD activity (channel-bus utilization), both
// derived from the simulation's resource busy-time integrals. The
// coefficients are calibrated to the paper's measurements: 103 W idle,
// ~122 W average for Conv and ~136 W for Biscuit during Query 1 — Conv
// loads the host but underutilizes the SSD, Biscuit keeps the SSD's full
// internal bandwidth busy.
package power

import (
	"biscuit/internal/device"
	"biscuit/internal/sim"
)

// Model holds the coefficients.
type Model struct {
	IdleW  float64 // baseline system power
	HostW  float64 // added watts at 100% host CPU utilization
	SSDW   float64 // added watts at 100% SSD channel utilization
	DevCPU float64 // added watts at 100% device-core utilization
}

// Default is calibrated to the paper's wall measurements: one busy Xeon
// thread plus its DRAM/chipset activity lifts the wall by ~19 W (Conv
// query execution averaged 122 W against 103 W idle), and driving the
// SSD at full internal bandwidth adds ~30 W (Biscuit averaged 136 W).
func Default() Model {
	return Model{IdleW: 103, HostW: 400, SSDW: 40, DevCPU: 4}
}

// Meter samples a platform's resource utilization into a power trace.
type Meter struct {
	M    Model
	plat *device.Platform

	start    sim.Time
	lastT    sim.Time
	lastHost float64
	lastChan []float64
	lastCore []float64

	Times []sim.Time // sample timestamps (end of each window)
	Watts []float64  // average power over each window
}

// NewMeter attaches a meter to plat; call Sample periodically (in
// virtual time) to build the trace.
func NewMeter(plat *device.Platform, m Model) *Meter {
	mt := &Meter{M: m, plat: plat, start: plat.Env.Now(), lastT: plat.Env.Now()}
	mt.lastHost = plat.HostCPU.Resource().BusyTime()
	nch := plat.Cfg.NAND.Channels
	mt.lastChan = make([]float64, nch)
	for i := 0; i < nch; i++ {
		mt.lastChan[i] = plat.Array.ChannelBus(i).BusyTime()
	}
	mt.lastCore = make([]float64, plat.DevRT.Cores())
	for i := range mt.lastCore {
		mt.lastCore[i] = plat.DevRT.CoreResource(i).BusyTime()
	}
	return mt
}

// Sample records instantaneous power averaged over the window since the
// previous sample.
func (mt *Meter) Sample() {
	now := mt.plat.Env.Now()
	dt := (now - mt.lastT).Seconds()
	if dt <= 0 {
		return
	}
	host := mt.plat.HostCPU.Resource().BusyTime()
	uHost := (host - mt.lastHost) / dt / float64(mt.plat.HostCPU.Threads())
	mt.lastHost = host

	uSSD := 0.0
	for i := range mt.lastChan {
		b := mt.plat.Array.ChannelBus(i).BusyTime()
		uSSD += (b - mt.lastChan[i]) / dt
		mt.lastChan[i] = b
	}
	uSSD /= float64(len(mt.lastChan))

	uCore := 0.0
	for i := range mt.lastCore {
		b := mt.plat.DevRT.CoreResource(i).BusyTime()
		uCore += (b - mt.lastCore[i]) / dt
		mt.lastCore[i] = b
	}
	uCore /= float64(len(mt.lastCore))

	w := mt.M.IdleW + mt.M.HostW*clamp01(uHost) + mt.M.SSDW*clamp01(uSSD) + mt.M.DevCPU*clamp01(uCore)
	mt.Times = append(mt.Times, now)
	mt.Watts = append(mt.Watts, w)
	mt.lastT = now
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Run spawns a sampling process that records every interval until the
// stop event fires, then takes one final sample.
func (mt *Meter) Run(interval sim.Time, stop *sim.Event) {
	mt.plat.Env.Spawn("power-meter", func(p *sim.Proc) {
		for !stop.Fired() {
			p.Sleep(interval)
			mt.Sample()
		}
	})
}

// EnergyJ integrates the trace into joules.
func (mt *Meter) EnergyJ() float64 {
	total := 0.0
	prev := mt.start
	for i, t := range mt.Times {
		total += mt.Watts[i] * (t - prev).Seconds()
		prev = t
	}
	return total
}

// AvgW returns the time-weighted average power of the trace.
func (mt *Meter) AvgW() float64 {
	if len(mt.Times) == 0 {
		return mt.M.IdleW
	}
	span := mt.Times[len(mt.Times)-1] - mt.start
	if span <= 0 {
		return mt.M.IdleW
	}
	return mt.EnergyJ() / span.Seconds()
}
