// Package core implements the Biscuit runtime (paper §III, §IV-B) and
// the host-side library semantics (§IV-C): dynamic module loading and
// unloading, SSDlet instantiation and lifecycle, flow-based port
// connections with aggressive type checking, the host/device channel
// manager, and Application coordination.
//
// The public, paper-shaped API (SSD / Application / SSDLet proxies,
// Codes 1–3) is exported by the root biscuit package, which wraps this
// one.
package core

import (
	"errors"
	"fmt"

	"biscuit/internal/device"
	"biscuit/internal/fibers"
	"biscuit/internal/isfs"
	"biscuit/internal/mem"
	"biscuit/internal/sim"
)

// Runtime errors.
var (
	ErrNoImage       = errors.New("core: no such module image installed")
	ErrModuleInUse   = errors.New("core: module has live SSDlet instances")
	ErrNoSuchSSDlet  = errors.New("core: module does not register that SSDlet id")
	ErrAppStarted    = errors.New("core: application already started")
	ErrAppNotStarted = errors.New("core: application not started")
	ErrTypeMismatch  = errors.New("core: port type mismatch")
	ErrPortBound     = errors.New("core: port already bound (SPSC only)")
	ErrPortUnbound   = errors.New("core: port not connected")
	ErrCrossApp      = errors.New("core: SSDlets belong to different applications")
	ErrNotPacket     = errors.New("core: this port type carries only Packet")
	ErrBadPort       = errors.New("core: port index out of range")
)

// Factory constructs a fresh SSDlet instance. One binary image can yield
// many instances: the runtime "performs symbol relocation and locates
// each one in a separate address space" (§IV-B) — modeled by charging
// relocation work and allocating a separate memory block per instance.
type Factory func() SSDlet

// ModuleImage is an installed .slet binary: a named container of SSDlet
// classes, the unit the host loads and unloads dynamically.
type ModuleImage struct {
	Name      string // image name, doubles as its file name on the FS
	Size      int    // binary size in bytes (timing + memory footprint)
	factories map[string]Factory
}

// NewModuleImage creates an empty image.
func NewModuleImage(name string, size int) *ModuleImage {
	if size <= 0 {
		size = 64 << 10
	}
	return &ModuleImage{Name: name, Size: size, factories: make(map[string]Factory)}
}

// RegisterSSDLet registers a class under id, mirroring the paper's
// RegisterSSDLet macro (Code 2).
func (m *ModuleImage) RegisterSSDLet(id string, f Factory) *ModuleImage {
	if _, dup := m.factories[id]; dup {
		panic(fmt.Sprintf("core: duplicate SSDlet id %q in module %q", id, m.Name))
	}
	m.factories[id] = f
	return m
}

// Module is a loaded module on the device.
type Module struct {
	img    *ModuleImage
	blk    mem.Block
	refs   int
	loaded bool
}

// Name returns the underlying image name.
func (m *Module) Name() string { return m.img.Name }

// The runtime's control-plane cost model (device cycles at the device
// clock, host cycles at the host clock), calibrated against Table II.
const (
	ctrlHostCycles   float64 = 12500 // host side of one control command: 5 us @ 2.5 GHz
	ctrlDevCycles    float64 = 22500 // device side of one control command: 30 us @ 750 MHz
	relocCyclesPerKB float64 = 1500  // symbol relocation per KiB of image: 2 us
	spawnDevCycles   float64 = 37500 // instantiate one SSDlet: 50 us

	// typeCost is the inter-SSDlet port's per-operation type abstraction
	// / de-abstraction cost (Table II: +20.3 us over inter-application);
	// packetPortCost is the handling cost of a Packet-only port.
	typeCost       sim.Time = 11214 * sim.Nanosecond
	packetPortCost          = 500 * sim.Nanosecond
)

// Runtime is the device-resident Biscuit runtime plus the state the
// host-side library keeps about it.
type Runtime struct {
	Plat *device.Platform
	FS   *isfs.FS

	images map[string]*ModuleImage

	chanMgr *ChannelManager
	ctrl    *fibers.Group // runtime control fibers (contend for device cores)
}

// NewRuntime builds a runtime over plat with fs mounted.
func NewRuntime(plat *device.Platform, fs *isfs.FS) *Runtime {
	r := &Runtime{
		Plat:   plat,
		FS:     fs,
		images: make(map[string]*ModuleImage),
		ctrl:   plat.DevRT.NewGroup(),
	}
	r.chanMgr = &ChannelManager{rt: r}
	return r
}

// Env returns the simulation environment.
func (r *Runtime) Env() *sim.Env { return r.Plat.Env }

// ChannelManager exposes the host/device channel manager.
func (r *Runtime) ChannelManager() *ChannelManager { return r.chanMgr }

// InstallImage registers a module binary with the device, the analogue
// of copying wordcount.slet into /var/isc/slets.
func (r *Runtime) InstallImage(img *ModuleImage) {
	r.images[img.Name] = img
}

// devExec runs cycles of runtime work on a device core (contending with
// SSDlet fibers) and blocks p until it completes.
func (r *Runtime) devExec(p *sim.Proc, cycles float64) {
	done := r.Env().NewEvent()
	r.ctrl.Go("rt-ctrl", func(f *fibers.Fiber) {
		f.Compute(cycles)
		done.Fire()
	})
	p.Wait(done)
}

// control charges one host->device control command round trip (the
// control channel of §IV-C) and the device-side handling work.
func (r *Runtime) control(p *sim.Proc, devCycles float64) {
	r.Plat.HostCPU.Exec(p, ctrlHostCycles)
	r.Plat.HostIF.Message(p, false, 64)
	r.devExec(p, ctrlDevCycles+devCycles)
	r.Plat.HostIF.Message(p, true, 64)
}

// LoadModule loads the installed image called name: the binary is read
// from the device file system if present (timed media read), relocated,
// and given a system-heap allocation.
func (r *Runtime) LoadModule(p *sim.Proc, name string) (*Module, error) {
	img, ok := r.images[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoImage, name)
	}
	r.control(p, 0)
	// Read the binary off the media if it is stored as a file.
	if f, err := r.FS.Open(name, isfs.ReadOnly); err == nil {
		n := int(f.Size())
		if n > 0 {
			buf := make([]byte, n)
			done := r.Env().NewEvent()
			var readErr error
			r.Env().Spawn("modload-read", func(rp *sim.Proc) {
				_, readErr = f.Read(rp, 0, buf)
				done.Fire()
			})
			p.Wait(done)
			if readErr != nil {
				return nil, fmt.Errorf("core: reading module %q off media: %w", name, readErr)
			}
		}
	}
	// Relocation on the device cores.
	r.devExec(p, relocCyclesPerKB*float64(img.Size)/1024)
	blk, err := r.Plat.DevMem.System.Alloc(img.Size)
	if err != nil {
		return nil, fmt.Errorf("core: loading %q: %w", name, err)
	}
	return &Module{img: img, blk: blk, loaded: true}, nil
}

// UnloadModule unloads m; it must have no live SSDlet instances.
func (r *Runtime) UnloadModule(p *sim.Proc, m *Module) error {
	if m.refs > 0 {
		return fmt.Errorf("%w: %d live", ErrModuleInUse, m.refs)
	}
	if !m.loaded {
		return fmt.Errorf("core: module %q not loaded", m.Name())
	}
	r.control(p, 0)
	if err := r.Plat.DevMem.System.Free(m.blk); err != nil {
		return err
	}
	m.loaded = false
	return nil
}
