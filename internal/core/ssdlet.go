package core

import (
	"reflect"

	"biscuit/internal/device"
	"biscuit/internal/fibers"
	"biscuit/internal/isfs"
	"biscuit/internal/match"
	"biscuit/internal/mem"
	"biscuit/internal/ports"
	"biscuit/internal/sim"
)

// Spec declares an SSDlet's ports: the Go analogue of the paper's
// SSDLet<IN_TYPE, OUT_TYPE, ARG_TYPE> template parameters (Code 1). The
// runtime checks declared element types at connect time — the "more
// aggressive type checking at compile and run time" of §III-A — while
// the generic In/Out accessors give compile-time safety inside Run.
type Spec struct {
	In  []reflect.Type
	Out []reflect.Type
}

// SpecType names a port element type inside a Spec.
type SpecType = reflect.Type

// PortType returns the reflect.Type used to declare a port of element
// type T in a Spec.
func PortType[T any]() reflect.Type { return reflect.TypeOf((*T)(nil)).Elem() }

// PacketType is the declared type of host-to-device and
// inter-application ports.
var PacketType = PortType[ports.Packet]()

// SSDlet is device-resident user code: Run executes on a fiber when the
// host program starts the application.
type SSDlet interface {
	Spec() Spec
	Run(ctx *Context) error
}

// Context is the execution environment handed to SSDlet.Run: typed port
// endpoints, initial arguments, file access, the user memory allocator
// and compute charging.
type Context struct {
	rt    *Runtime
	inst  *letInstance
	fiber *fibers.Fiber
}

// Name returns the instance name ("idMapper#0" style).
func (c *Context) Name() string { return c.inst.name }

// Arg returns argument i, or nil if absent.
func (c *Context) Arg(i int) any {
	if i < 0 || i >= len(c.inst.args) {
		return nil
	}
	return c.inst.args[i]
}

// Now returns the current virtual time.
func (c *Context) Now() sim.Time { return c.fiber.Proc().Now() }

// Compute charges device-core cycles of SSDlet work.
func (c *Context) Compute(cycles float64) { c.fiber.Compute(cycles) }

// Alloc allocates from the user memory allocator (§IV-B); SSDlets are
// prohibited from the system allocator.
func (c *Context) Alloc(n int) (mem.Block, error) { return c.rt.Plat.DevMem.User.Alloc(n) }

// Free returns a user allocation.
func (c *Context) Free(b mem.Block) error { return c.rt.Plat.DevMem.User.Free(b) }

// Bytes resolves a user block's payload with the user owner tag. The
// window is valid until the block is freed or the next Alloc, which may
// move the user heap's backing.
func (c *Context) Bytes(b mem.Block) ([]byte, error) { return b.Bytes(mem.UserOwner) }

// OpenFile opens a file by name. Access mode is inherited from what the
// host passed: SSDlets cannot widen a read-only handle (§III-D).
func (c *Context) OpenFile(name string, mode isfs.Mode) (*isfs.File, error) {
	return c.rt.FS.Open(name, mode)
}

// ReadFile performs a synchronous internal read on f: the fiber blocks
// (releasing its core) for the media time plus the Biscuit-internal
// completion overhead — Table III's right column path.
func (c *Context) ReadFile(f *isfs.File, off int64, buf []byte) (int, error) {
	var n int
	var err error
	c.fiber.Block(func(p *sim.Proc) {
		n, err = f.Read(p, off, buf)
		if err == nil {
			p.Sleep(device.InternalReadOverhead)
		}
	})
	return n, err
}

// ScanFile streams [off, off+n) of f through the per-channel hardware
// pattern matcher (the built-in IP of §IV-A); sink observes the bytes in
// arbitrary chunk order, each tagged with its file offset. The fiber
// blocks for the duration; matching itself happens "in hardware", i.e.
// costs no device-core cycles beyond the per-command IP overhead. data
// is the media's own page: sink copies what it keeps, writes nothing.
func (c *Context) ScanFile(f *isfs.File, off int64, n int, sink func(fileOff int64, data []byte)) error {
	var err error
	c.fiber.Block(func(p *sim.Proc) {
		err = f.ReadThrough(p, off, n, c.rt.Plat.Cfg.PatternMatcherOverhead, sink)
	})
	return err
}

// Matcher is the device's matcher IP, for judging the pages ScanFile
// lends (match.Matcher.ContainsPage).
func (c *Context) Matcher() *match.Matcher { return c.rt.Plat.Matcher }

// connKind distinguishes the three port types of §III-C.
type connKind int

const (
	interSSDlet connKind = iota
	hostPort
	interApp
)

func newAnyQueue(env *sim.Env) *ports.Queue[any] {
	return ports.NewQueue[any](env, defaultQueueCap)
}

// conn is one established connection: a shared bounded queue plus type
// and topology metadata.
type conn struct {
	kind      connKind
	elem      reflect.Type
	q         *ports.Queue[any]
	producers int // live producer endpoints; queue closes at zero
}

// closeOut retires this instance's producer endpoint on cn, once; the
// stream ends when the last producer has.
func (li *letInstance) closeOut(cn *conn) {
	if li.closedOut[cn] {
		return
	}
	li.closedOut[cn] = true
	if cn.producers--; cn.producers <= 0 {
		cn.q.Close()
	}
}

// InPort is a typed receive endpoint inside an SSDlet.
type InPort[T any] struct {
	c  *Context
	cn *conn
}

// OutPort is a typed send endpoint inside an SSDlet.
type OutPort[T any] struct {
	c  *Context
	cn *conn
}

// In binds input port i of the running SSDlet with element type T,
// verifying T against the type recorded at connect time.
func In[T any](c *Context, i int) (*InPort[T], error) {
	cn, err := c.inst.In(i).bound(PortType[T]())
	if err != nil {
		return nil, err
	}
	return &InPort[T]{c: c, cn: cn}, nil
}

// Out binds output port i with element type T.
func Out[T any](c *Context, i int) (*OutPort[T], error) {
	cn, err := c.inst.Out(i).bound(PortType[T]())
	if err != nil {
		return nil, err
	}
	return &OutPort[T]{c: c, cn: cn}, nil
}

// portCost charges the per-operation cost of the port flavour: the type
// (de)abstraction work of inter-SSDlet ports, or the small packet
// handling cost of Packet-only ports.
func portCost(c *Context, cn *conn) {
	switch cn.kind {
	case interSSDlet:
		c.fiber.ComputeTime(typeCost)
	default:
		c.fiber.ComputeTime(packetPortCost)
	}
}

// Get receives the next value, blocking cooperatively; ok is false when
// the stream has ended (all producers done).
func (p *InPort[T]) Get() (T, bool) {
	portCost(p.c, p.cn)
	v, ok := p.cn.q.Get(p.c.fiber)
	if !ok {
		var zero T
		return zero, false
	}
	return v.(T), true
}

// Put sends a value, blocking cooperatively while the queue is full; it
// reports false if the connection is closed.
func (p *OutPort[T]) Put(v T) bool {
	portCost(p.c, p.cn)
	return p.cn.q.Put(p.c.fiber, v)
}

// Close marks this producer endpoint done; the stream ends when every
// producer has closed (or returned from Run).
func (p *OutPort[T]) Close() { p.c.inst.closeOut(p.cn) }
