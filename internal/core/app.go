package core

import (
	"fmt"
	"reflect"

	"biscuit/internal/fibers"
	"biscuit/internal/sim"
)

// App is an Application: a group of SSDlets started and coordinated
// together (paper §III-B). All of an application's fibers run on the
// same device core (§IV-B), so its inter-SSDlet queues need no locks.
type App struct {
	group   *fibers.Group
	lets    []*letInstance
	started bool
	failed  []error
}

// LetRef is an opaque host-side handle to an SSDlet instance; higher
// layers (the biscuit facade) hold these without seeing internals.
type LetRef = *letInstance

// letInstance is one SSDlet instance (and, on the host side, its proxy).
type letInstance struct {
	app    *App
	name   string
	module *Module
	let    SSDlet
	spec   Spec
	args   []any

	in        []*conn
	out       []*conn
	closedOut map[*conn]bool
	done      *sim.Event
	err       error
}

// PortRef names one port of an SSDlet instance, out(i) or in(i), for the
// connect calls.
type PortRef struct {
	li  *letInstance
	idx int
	out bool
}

// In names input port i.
func (li *letInstance) In(i int) PortRef { return PortRef{li: li, idx: i} }

// Out names output port i.
func (li *letInstance) Out(i int) PortRef { return PortRef{li: li, idx: i, out: true} }

// slot resolves the reference to the connection slot it names and the
// element type declared for it in the SSDlet's Spec.
func (pt PortRef) slot() (**conn, reflect.Type, error) {
	slots, types := pt.li.in, pt.li.spec.In
	if pt.out {
		slots, types = pt.li.out, pt.li.spec.Out
	}
	if pt.idx < 0 || pt.idx >= len(slots) {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadPort, pt)
	}
	return &slots[pt.idx], types[pt.idx], nil
}

// String renders the reference the way error messages name a port.
func (pt PortRef) String() string {
	dir := "in"
	if pt.out {
		dir = "out"
	}
	return fmt.Sprintf("%s.%s(%d)", pt.li.name, dir, pt.idx)
}

// endpoint is the one check every connect path runs on each side before
// it charges anything: the application has not started, the reference
// points the way the caller needs (out = a producer side) at a declared
// port and, for the two Packet-only SPSC kinds (host and
// inter-application ports, §III-C), that port carries Packet and is
// still unbound. Inter-SSDlet ports may share a queue, so Connect
// settles their binding itself.
func (pt PortRef) endpoint(out bool, kind connKind) (**conn, reflect.Type, error) {
	if pt.li.app.started {
		return nil, nil, ErrAppStarted
	}
	if pt.out != out {
		return nil, nil, fmt.Errorf("%w: %v is on the wrong side of this connection", ErrBadPort, pt)
	}
	slot, elem, err := pt.slot()
	switch {
	case err != nil || kind == interSSDlet:
		return slot, elem, err
	case elem != PacketType:
		return nil, nil, fmt.Errorf("%w: %v is %v", ErrNotPacket, pt, elem)
	case *slot != nil:
		return nil, nil, fmt.Errorf("%w: %v", ErrPortBound, pt)
	}
	return slot, elem, nil
}

// bound returns the connection behind a port of the running SSDlet,
// verifying the element type recorded at connect time against want.
func (pt PortRef) bound(want reflect.Type) (*conn, error) {
	slot, _, err := pt.slot()
	switch {
	case err != nil:
		return nil, err
	case *slot == nil:
		return nil, fmt.Errorf("%w: %v", ErrPortUnbound, pt)
	case (*slot).elem != want:
		return nil, fmt.Errorf("%w: %v carries %v, requested %v", ErrTypeMismatch, pt, (*slot).elem, want)
	}
	return *slot, nil
}

// NewApp creates an application on the device (one control round trip).
func (r *Runtime) NewApp(p *sim.Proc) *App {
	r.control(p, 0)
	return &App{group: r.Plat.DevRT.NewGroup()}
}

// Failed returns errors from SSDlets whose Run returned or panicked with
// an error; the runtime contains failures rather than crashing (§II-B
// safety).
func (a *App) Failed() []error { return a.failed }

// CreateLet instantiates SSDlet class id from module m with initial
// args, returning the host-side proxy. The runtime charges symbol
// relocation and instantiation work on the device cores.
func (r *Runtime) CreateLet(p *sim.Proc, a *App, m *Module, id string, args ...any) (*letInstance, error) {
	if a.started {
		return nil, ErrAppStarted
	}
	f, ok := m.img.factories[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q in module %q", ErrNoSuchSSDlet, id, m.img.Name)
	}
	r.control(p, spawnDevCycles)
	let := f()
	spec := let.Spec()
	li := &letInstance{
		app:       a,
		name:      fmt.Sprintf("%s#%d", id, len(a.lets)),
		module:    m,
		let:       let,
		spec:      spec,
		args:      args,
		in:        make([]*conn, len(spec.In)),
		out:       make([]*conn, len(spec.Out)),
		closedOut: make(map[*conn]bool),
		done:      r.Env().NewEvent(),
	}
	m.refs++
	a.lets = append(a.lets, li)
	return li, nil
}

// defaultQueueCap bounds port queues; the paper implements every port as
// a bounded queue (§IV-B).
const defaultQueueCap = 64

// Connect links an output port to an input port of the same
// application: an inter-SSDlet port. Fan-in (MPSC) and fan-out (SPMC)
// are allowed by sharing the queue; element types must match exactly —
// no implicit conversion (§III-C).
func (r *Runtime) Connect(p *sim.Proc, from, to PortRef) error {
	if from.li.app != to.li.app {
		return ErrCrossApp
	}
	out, ot, err := from.endpoint(true, interSSDlet)
	if err != nil {
		return err
	}
	in, it, err := to.endpoint(false, interSSDlet)
	if err != nil {
		return err
	}
	if ot != it {
		return fmt.Errorf("%w: %v is %v, %v is %v", ErrTypeMismatch, from, ot, to, it)
	}
	r.control(p, 0)

	// A side that is already bound shares its queue with the new one.
	cn := *out
	if cn == nil {
		cn = *in
	}
	switch {
	case *out != nil && *in != nil:
		return fmt.Errorf("%w: both endpoints already connected", ErrPortBound)
	case cn == nil:
		cn = &conn{kind: interSSDlet, elem: ot, q: newAnyQueue(r.Env())}
	case cn.kind != interSSDlet:
		return fmt.Errorf("%w: endpoint already bound to a Packet-only port", ErrPortBound)
	}
	if *out == nil {
		cn.producers++
	}
	*out, *in = cn, cn
	return nil
}

// ConnectApps links an output port of one application's SSDlet to an
// input port of another application's SSDlet: an inter-application
// port. Only Packet flows, and only SPSC (§III-C).
func (r *Runtime) ConnectApps(p *sim.Proc, from, to PortRef) error {
	if from.li.app == to.li.app {
		return fmt.Errorf("core: use Connect for SSDlets of the same application")
	}
	out, _, err := from.endpoint(true, interApp)
	if err != nil {
		return err
	}
	in, _, err := to.endpoint(false, interApp)
	if err != nil {
		return err
	}
	r.control(p, 0)
	cn := &conn{kind: interApp, elem: PacketType, q: newAnyQueue(r.Env()), producers: 1}
	*out, *in = cn, cn
	return nil
}

// Start begins execution of every SSDlet in the application after all
// communication channels are set up (Code 3's Application::start). Ports
// left unconnected are an error surfaced through Failed.
func (r *Runtime) Start(p *sim.Proc, a *App) error {
	if a.started {
		return ErrAppStarted
	}
	a.started = true
	r.control(p, float64(len(a.lets))*spawnDevCycles/4)
	for _, li := range a.lets {
		a.group.Go(li.name, func(f *fibers.Fiber) {
			ctx := &Context{rt: r, inst: li, fiber: f}
			func() {
				defer func() {
					if v := recover(); v != nil {
						li.err = fmt.Errorf("core: SSDlet %s panicked: %v", li.name, v)
					}
				}()
				li.err = li.let.Run(ctx)
			}()
			if li.err != nil {
				a.failed = append(a.failed, li.err)
			}
			// Run returned: close all of this instance's producer
			// endpoints so downstream consumers see end-of-stream.
			for _, cn := range li.out {
				if cn != nil {
					li.closeOut(cn)
				}
			}
			li.module.refs--
			li.done.Fire()
		})
	}
	return nil
}

// Wait blocks until every SSDlet of the application has terminated.
func (r *Runtime) Wait(p *sim.Proc, a *App) error {
	if !a.started {
		return ErrAppNotStarted
	}
	a.group.WaitIdle(p)
	return nil
}
