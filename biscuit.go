// Package biscuit is a Go reproduction of Biscuit, the near-data
// processing framework for fast solid-state drives described in
//
//	Gu et al., "Biscuit: A Framework for Near-Data Processing of Big
//	Data Workloads", ISCA 2016.
//
// A Biscuit application is a data-flow graph of tasks ("SSDlets")
// connected by typed, bounded, data-ordered ports. Tasks run inside the
// SSD next to the data; a host program loads task modules dynamically,
// wires ports, starts the application and exchanges Packets with it.
// Because real SSD firmware cannot be targeted from Go, the SSD itself —
// NAND channels, FTL, NVMe link, embedded cores, per-channel pattern
// matcher — is a deterministic discrete-event simulation (see DESIGN.md),
// while the runtime, ports, file system and applications are real code.
//
// The API mirrors the paper's host-side library (libsisc) and device-side
// library (libslet): SSD, Application, SSDLet proxies, File, Packet, and
// RegisterSSDLet for module authors.
package biscuit

import (
	"math/rand"

	"biscuit/internal/core"
	"biscuit/internal/device"
	"biscuit/internal/isfs"
	"biscuit/internal/ports"
	"biscuit/internal/sim"
	"biscuit/internal/trace"
)

// Re-exported device-side types for SSDlet authors (the libslet view).
type (
	// SSDlet is device-resident user code; implement Spec and Run.
	SSDlet = core.SSDlet
	// Context is passed to SSDlet.Run: ports, args, files, memory.
	Context = core.Context
	// Spec declares an SSDlet's port types.
	Spec = core.Spec
	// SpecType names a port element type inside a Spec.
	SpecType = core.SpecType
	// Module is a loaded module handle.
	Module = core.Module
	// ModuleImage is an installable .slet binary image.
	ModuleImage = core.ModuleImage
	// Packet is the serialized wire type of host and inter-app ports.
	Packet = ports.Packet
	// File is an open file on the in-storage file system.
	File = isfs.File
	// Config aggregates the full platform configuration.
	Config = device.Config
)

// NewModule creates a module image to register SSDlet classes on,
// mirroring the paper's module container (Code 2's RegisterSSDLet).
func NewModule(name string, size int) *ModuleImage { return core.NewModuleImage(name, size) }

// NewPacket wraps raw bytes in a Packet.
func NewPacket(b []byte) Packet { return ports.NewPacket(b) }

// Encode serializes a value into a Packet (explicit serialization per
// paper §III-C).
func Encode[T any](v T) (Packet, error) { return ports.Encode(v) }

// Decode deserializes a Packet produced by Encode.
func Decode[T any](p Packet) (T, error) { return ports.Decode[T](p) }

// PortOf declares a port element type in a Spec.
func PortOf[T any]() core.SpecType { return core.PortType[T]() }

// PacketPort is the declared type of Packet-carrying ports.
var PacketPort = core.PacketType

// In binds a typed input port inside a running SSDlet.
func In[T any](c *Context, i int) (*core.InPort[T], error) { return core.In[T](c, i) }

// Out binds a typed output port inside a running SSDlet.
func Out[T any](c *Context, i int) (*core.OutPort[T], error) { return core.Out[T](c, i) }

// DefaultConfig returns the calibrated configuration of the paper's
// evaluation platform (Table I, §V-A).
func DefaultConfig() Config { return device.DefaultConfig() }

// System is one simulated host + SSD pair with a mounted file system and
// the Biscuit runtime installed.
type System struct {
	Env  *sim.Env
	Plat *device.Platform
	RT   *core.Runtime
}

// NewSystem builds a system with the given configuration and formats the
// in-storage file system.
func NewSystem(cfg Config) *System {
	env := sim.NewEnv()
	s := newDevice(env, device.New(env, cfg), "mkfs")
	env.Run()
	return s
}

// newDevice is the one per-SSD builder: a process called mkfs formats
// the in-storage file system on plat, mounts the runtime over it and
// installs the builtin module. The device exists once env has run.
func newDevice(env *sim.Env, plat *device.Platform, mkfs string) *System {
	s := &System{Env: env, Plat: plat}
	env.Spawn(mkfs, func(p *sim.Proc) {
		s.RT = core.NewRuntime(plat, isfs.Format(p, plat.FTL))
		s.RT.InstallImage(builtinImage())
	})
	return s
}

// Install registers a module image with the device, like dropping a
// .slet file into /var/isc/slets.
func (s *System) Install(img *ModuleImage) { s.RT.InstallImage(img) }

// SetTracer installs tr on every platform component (nil uninstalls),
// so one export carries the full vertical slice: NVMe commands, NAND
// die operations, FTL GC, fiber scheduling, port traffic, db scans.
func (s *System) SetTracer(tr *trace.Tracer) { s.Plat.SetTracer(tr) }

// Tracer returns the installed tracer (nil when tracing is disabled).
func (s *System) Tracer() *trace.Tracer { return s.Plat.Trace }

// NewTracer builds a tracer on the system's clock and installs it.
func (s *System) NewTracer() *trace.Tracer {
	tr := trace.New(s.Env)
	s.SetTracer(tr)
	return tr
}

// launch is the one launcher: body runs on a new simulated host thread
// called name and, unless took is nil, took grows to body's virtual
// duration if that is longer.
func launch(env *sim.Env, name string, took *sim.Time, body func(p *sim.Proc)) {
	env.Spawn(name, func(p *sim.Proc) {
		start := p.Now()
		body(p)
		if took != nil {
			*took = max(*took, p.Now()-start)
		}
	})
}

// Run executes a host program against the system and drives the
// simulation to completion, returning the virtual time the program took.
func (s *System) Run(program func(h *Host)) sim.Time {
	var took sim.Time
	launch(s.Env, "host-main", &took, func(p *sim.Proc) { program(&Host{sys: s, p: p}) })
	s.Env.Run()
	return took
}

// Host is the execution context of a host program: it wraps the host's
// simulated thread so application code reads like the paper's Code 3.
type Host struct {
	sys *System
	p   *sim.Proc
}

// Proc exposes the underlying simulated host thread.
func (h *Host) Proc() *sim.Proc { return h.p }

// Now returns the current virtual time.
func (h *Host) Now() sim.Time { return h.p.Now() }

// System returns the host's system.
func (h *Host) System() *System { return h.sys }

// SSD returns a handle to the (single) SSD, mirroring
// `SSD ssd("/dev/nvme0n1")`.
func (h *Host) SSD() *SSD { return &SSD{h: h} }

// SeededRand returns a random source seeded with seed. All randomness
// in this repository is injected through explicit *rand.Rand values so
// runs reproduce bit-for-bit (the detrand analyzer bans the global
// math/rand source); SeededRand is the sanctioned constructor for
// program boundaries — main functions, benchmarks, tests.
func SeededRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
