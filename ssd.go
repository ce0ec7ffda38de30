package biscuit

import (
	"fmt"

	"biscuit/internal/core"
	"biscuit/internal/isfs"
	"biscuit/internal/sim"
)

// SSD is the host-side proxy for the device (the paper's SSD class):
// module loading, file management and application creation go through
// it.
type SSD struct {
	h *Host
}

// LoadModule loads an installed module image by name and returns its
// handle (Code 3's ssd.loadModule).
func (s *SSD) LoadModule(name string) (*Module, error) {
	return s.h.sys.RT.LoadModule(s.h.p, name)
}

// UnloadModule unloads a module with no live SSDlet instances.
func (s *SSD) UnloadModule(m *Module) error {
	return s.h.sys.RT.UnloadModule(s.h.p, m)
}

// CreateFile creates a file on the in-storage file system.
func (s *SSD) CreateFile(name string) (*File, error) { return s.h.sys.RT.FS.Create(name) }

// OpenFile opens an existing file.
func (s *SSD) OpenFile(name string, readOnly bool) (*File, error) {
	mode := isfs.ReadWrite
	if readOnly {
		mode = isfs.ReadOnly
	}
	return s.h.sys.RT.FS.Open(name, mode)
}

// WriteFile writes data at off through the host path and flushes.
func (s *SSD) WriteFile(f *File, off int64, data []byte) error {
	if err := f.Write(s.h.p, off, data); err != nil {
		return err
	}
	return f.Flush(s.h.p)
}

// ReadFileConv reads a file range over the conventional host I/O path:
// NVMe submit, media read, DMA over PCIe — what a normal pread costs.
// Device errors that survive the interface's command retry surface here.
func (s *SSD) ReadFileConv(f *File, off int64, buf []byte) error {
	segs, err := f.Segments(off, len(buf))
	if err != nil {
		return err
	}
	at := 0
	for _, seg := range segs {
		if err := s.h.sys.Plat.HostIF.Read(s.h.p, seg.FTLOff, buf[at:at+seg.N]); err != nil {
			return err
		}
		at += seg.N
	}
	return nil
}

// ReadFileConvAsync issues conventional reads for all of buf with up to
// depth outstanding NVMe commands and waits for completion.
func (s *SSD) ReadFileConvAsync(f *File, off int64, buf []byte, chunk, depth int) error {
	segs, err := f.Segments(off, len(buf))
	if err != nil {
		return err
	}
	inflight := make([]*sim.Completion, 0, depth)
	var first error
	drain := func(c *sim.Completion) {
		if err := c.Wait(s.h.p); err != nil && first == nil {
			first = err
		}
	}
	at := 0
	for _, seg := range segs {
		for done := 0; done < seg.N; {
			n := min(chunk, seg.N-done)
			if len(inflight) >= depth {
				drain(inflight[0])
				inflight = inflight[1:]
			}
			inflight = append(inflight, s.h.sys.Plat.HostIF.ReadAsync(s.h.p, seg.FTLOff+int64(done), buf[at+done:at+done+n]))
			done += n
		}
		at += seg.N
	}
	for _, c := range inflight {
		drain(c)
	}
	return first
}

// Application coordinates a group of SSDlets (the paper's Application
// class).
type Application struct {
	h   *Host
	app *core.App
}

// NewApplication creates an application on the SSD.
func (s *SSD) NewApplication() *Application {
	return &Application{h: s.h, app: s.h.sys.RT.NewApp(s.h.p)}
}

// SSDLet is the host-side proxy of one SSDlet instance.
type SSDLet struct {
	li core.LetRef
}

// PortRef names one port of an SSDlet proxy. The runtime's endpoint
// check rejects a reference used on the wrong side of a connection.
type PortRef = core.PortRef

// NewSSDLet instantiates SSDlet class id from module m with initial
// arguments, mirroring Code 3's SSDLet constructor.
func (a *Application) NewSSDLet(m *Module, id string, args ...any) (*SSDLet, error) {
	li, err := a.h.sys.RT.CreateLet(a.h.p, a.app, m, id, args...)
	if err != nil {
		return nil, err
	}
	return &SSDLet{li: li}, nil
}

// In names input port i.
func (l *SSDLet) In(i int) PortRef { return l.li.In(i) }

// Out names output port i.
func (l *SSDLet) Out(i int) PortRef { return l.li.Out(i) }

// Connect links an output port to an input port of SSDlets in this
// application (inter-SSDlet port; SPSC, SPMC and MPSC supported).
func (a *Application) Connect(from, to PortRef) error {
	return a.h.sys.RT.Connect(a.h.p, from, to)
}

// ConnectApps links an output port of this application to an input port
// of another application (inter-application port; Packet only, SPSC).
// to already says which application it belongs to; the other argument
// keeps the call in the shape of the paper's API.
func (a *Application) ConnectApps(from PortRef, _ *Application, to PortRef) error {
	return a.h.sys.RT.ConnectApps(a.h.p, from, to)
}

// HostIn receives typed values from a device-to-host port.
type HostIn[T any] struct {
	h    *Host
	port *core.HostIn
}

// HostOut sends typed values into a host-to-device port.
type HostOut[T any] struct {
	h    *Host
	port *core.HostOut
}

// ConnectTo binds an SSDlet output port to the host and returns a typed
// receiving endpoint (Code 3's wc.connectTo<pair<string,uint32_t>>).
// The device-side port must carry Packet; values are decoded from it.
func ConnectTo[T any](a *Application, from PortRef) (*HostIn[T], error) {
	p, err := a.h.sys.RT.ConnectToHost(a.h.p, from)
	if err != nil {
		return nil, err
	}
	return &HostIn[T]{h: a.h, port: p}, nil
}

// ConnectFrom binds a host sending endpoint to an SSDlet input port.
func ConnectFrom[T any](a *Application, to PortRef) (*HostOut[T], error) {
	p, err := a.h.sys.RT.ConnectFromHost(a.h.p, to)
	if err != nil {
		return nil, err
	}
	return &HostOut[T]{h: a.h, port: p}, nil
}

// Get receives the next value; ok is false at end of stream.
func (hp *HostIn[T]) Get() (T, bool) {
	pkt, ok := hp.port.Get(hp.h.p)
	if !ok {
		var zero T
		return zero, false
	}
	v, err := Decode[T](pkt)
	if err != nil {
		panic("biscuit: host port decode: " + err.Error())
	}
	return v, true
}

// GetPacket receives the next raw Packet without decoding.
func (hp *HostIn[T]) GetPacket() (Packet, bool) { return hp.port.Get(hp.h.p) }

// Put sends a value to the device; false means the port is closed.
func (hp *HostOut[T]) Put(v T) bool {
	pkt, err := Encode(v)
	if err != nil {
		panic("biscuit: host port encode: " + err.Error())
	}
	return hp.port.Put(hp.h.p, pkt)
}

// Close ends the host-to-device stream.
func (hp *HostOut[T]) Close() { hp.port.Close() }

// Start begins execution of all SSDlets once connections are set up.
func (a *Application) Start() error { return a.h.sys.RT.Start(a.h.p, a.app) }

// Wait blocks until every SSDlet of the application terminates.
func (a *Application) Wait() error { return a.h.sys.RT.Wait(a.h.p, a.app) }

// Failed returns contained SSDlet failures (panics and Run errors).
func (a *Application) Failed() []error { return a.app.Failed() }

// Reap waits for the application and reports its first contained
// failure: what a host program does with an application it is done
// with.
func (a *Application) Reap() error {
	if err := a.Wait(); err != nil {
		return err
	}
	for _, err := range a.Failed() {
		return err
	}
	return nil
}

// Call offloads one request to one SSDlet: it loads module, runs class
// id with args as an application of its own, takes the single value the
// SSDlet sends on out(0), reaps the application and unloads the module
// — the whole of Code 3 for an SSDlet that answers once.
func Call[T any](ssd *SSD, module, id string, args ...any) (T, error) {
	var zero T
	m, err := ssd.LoadModule(module)
	if err != nil {
		return zero, err
	}
	defer func() { _ = ssd.UnloadModule(m) }() // best-effort teardown
	app := ssd.NewApplication()
	let, err := app.NewSSDLet(m, id, args...)
	if err != nil {
		return zero, err
	}
	port, err := ConnectTo[T](app, let.Out(0))
	if err != nil {
		return zero, err
	}
	if err := app.Start(); err != nil {
		return zero, err
	}
	res, ok := port.Get()
	if err := app.Reap(); err != nil {
		return zero, err
	}
	if !ok {
		return zero, fmt.Errorf("biscuit: %s of %s produced no result", id, module)
	}
	return res, nil
}
