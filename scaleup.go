package biscuit

import (
	"fmt"

	"biscuit/internal/device"
	"biscuit/internal/sim"
	"biscuit/internal/trace"
)

// MultiSystem is the Scale-up organization of the paper's Fig. 1(b):
// one host computer fronting several SSDs, each with its own PCIe link,
// media, device cores and Biscuit runtime. Aggregate in-storage compute
// and internal bandwidth grow with the number of drives while the host's
// CPU and memory system stay fixed — the organization's whole point.
type MultiSystem struct {
	Env     *sim.Env
	Systems []*System
}

// NewMultiSystem builds n SSDs sharing one simulated host.
func NewMultiSystem(cfg Config, n int) *MultiSystem {
	return NewMultiSystemConfigs(cfg, n, nil)
}

// NewMultiSystemConfigs builds n SSDs sharing one simulated host, with
// an optional per-device config hook: perDev(i, cfg) returns the config
// for drive i (e.g. a fault plan injected on one shard only).
func NewMultiSystemConfigs(cfg Config, n int, perDev func(i int, cfg Config) Config) *MultiSystem {
	if n < 1 {
		panic("biscuit: need at least one SSD")
	}
	env := sim.NewEnv()
	hostCPU, hostMem := device.NewHost(env)
	m := &MultiSystem{Env: env}
	for i := 0; i < n; i++ {
		dcfg := cfg
		if perDev != nil {
			dcfg = perDev(i, cfg)
		}
		plat := device.NewShared(env, dcfg, hostCPU, hostMem)
		m.Systems = append(m.Systems, newDevice(env, plat, fmt.Sprintf("mkfs-%d", i)))
	}
	env.Run()
	return m
}

// SetTracer records the whole array into one tracer: drive i observes
// through the namespace view "ssd<i>/", so every device's tracks (nvme
// queues, dies, fibers) land in a single interleaved export. Nil
// uninstalls everywhere.
func (m *MultiSystem) SetTracer(tr *trace.Tracer) {
	for i, s := range m.Systems {
		s.SetTracer(tr.Namespace(fmt.Sprintf("ssd%d/", i)))
	}
}

// NewTracer builds a tracer on the array's clock and installs it via
// SetTracer.
func (m *MultiSystem) NewTracer() *trace.Tracer {
	tr := trace.New(m.Env)
	m.SetTracer(tr)
	return tr
}

// MultiHost is the host program context over several SSDs: one simulated
// host thread with a handle per drive.
type MultiHost struct {
	m *MultiSystem
	p *sim.Proc
}

// Run executes a host program against all SSDs and drives the simulation
// to completion, returning the program's virtual duration.
func (m *MultiSystem) Run(program func(h *MultiHost)) sim.Time {
	var took sim.Time
	launch(m.Env, "host-main", &took, func(p *sim.Proc) { program(&MultiHost{m: m, p: p}) })
	m.Env.Run()
	return took
}

// N returns the number of attached SSDs.
func (h *MultiHost) N() int { return len(h.m.Systems) }

// Proc exposes the simulated host thread.
func (h *MultiHost) Proc() *sim.Proc { return h.p }

// Now returns the current virtual time.
func (h *MultiHost) Now() sim.Time { return h.p.Now() }

// Unit returns a single-SSD host view of drive i, on which the whole
// single-SSD API (SSD, Application, ports, files) works unchanged.
func (h *MultiHost) Unit(i int) *Host {
	return &Host{sys: h.m.Systems[i], p: h.p}
}

// Go runs fn on its own simulated host thread (e.g. to drive several
// SSDs concurrently) and returns the completion event.
func (h *MultiHost) Go(name string, fn func(h2 *MultiHost)) *sim.Event {
	done := h.m.Env.NewEvent()
	launch(h.m.Env, name, nil, func(p *sim.Proc) {
		fn(&MultiHost{m: h.m, p: p})
		done.Fire()
	})
	return done
}

// Wait blocks until every event fires.
func (h *MultiHost) Wait(evs ...*sim.Event) { h.p.WaitAll(evs...) }
