package core

import (
	"errors"
	"strings"
	"testing"

	"biscuit/internal/mem"
	"biscuit/internal/ports"
	"biscuit/internal/sim"
)

// memHog allocates user memory until the allocator refuses, then
// verifies isolation rules and frees everything.
type memHog struct{}

func (memHog) Spec() Spec { return Spec{Out: []SpecType{PacketType}} }

func (memHog) Run(c *Context) error {
	out, err := Out[ports.Packet](c, 0)
	if err != nil {
		return err
	}
	var blocks []mem.Block
	for {
		b, err := c.Alloc(1 << 20)
		if err != nil {
			if !errors.Is(err, mem.ErrOutOfMemory) {
				return err
			}
			break
		}
		if _, err := c.Bytes(b); err != nil {
			return err
		}
		blocks = append(blocks, b)
	}
	if len(blocks) == 0 {
		return errors.New("no allocations succeeded")
	}
	for _, b := range blocks {
		if err := c.Free(b); err != nil {
			return err
		}
	}
	pkt, err := ports.Encode(len(blocks))
	if err != nil {
		return err
	}
	out.Put(pkt)
	return nil
}

// TestSSDletMemoryExhaustionContained: hitting the user-heap limit is an
// error the SSDlet can handle, the runtime survives, and the memory is
// reusable afterwards (paper §II-B safety, §IV-B allocators).
func TestSSDletMemoryExhaustionContained(t *testing.T) {
	e, rt := testRig(t)
	img := NewModuleImage("hog.slet", 0).RegisterSSDLet("idHog", func() SSDlet { return memHog{} })
	rt.InstallImage(img)
	hostRun(t, e, func(p *sim.Proc) {
		run := func() int {
			m, _ := rt.LoadModule(p, "hog.slet")
			app := rt.NewApp(p)
			hog, _ := rt.CreateLet(p, app, m, "idHog")
			port, _ := rt.ConnectToHost(p, hog.Out(0))
			rt.Start(p, app)
			pkt, ok := port.Get(p)
			rt.Wait(p, app)
			for _, err := range app.Failed() {
				t.Fatalf("hog failed: %v", err)
			}
			if !ok {
				t.Fatal("no result")
			}
			n, err := ports.Decode[int](pkt)
			if err != nil {
				t.Fatal(err)
			}
			rt.UnloadModule(p, m)
			return n
		}
		first := run()
		if first == 0 {
			t.Fatal("expected some allocations before exhaustion")
		}
		// Everything was freed: a second run gets the same amount.
		if second := run(); second != first {
			t.Fatalf("heap leaked: first run %d MiB, second %d MiB", first, second)
		}
		if got := rt.Plat.DevMem.User.Allocated(); got != 0 {
			t.Fatalf("user heap has %d bytes outstanding", got)
		}
	})
}

// TestSSDletCannotTouchSystemMemory: user code reaching into the system
// allocator's memory is denied (MPU-style isolation).
func TestSSDletCannotTouchSystemMemory(t *testing.T) {
	e, rt := testRig(t)
	leaked := make(chan mem.Block, 1)
	img := NewModuleImage("spy.slet", 0).RegisterSSDLet("idSpy", func() SSDlet {
		return funcLet{fn: func(c *Context) error {
			blk := <-leaked // a system allocation smuggled to user code
			if _, err := blk.Bytes(mem.UserOwner); !errors.Is(err, mem.ErrAccessDenied) {
				return errors.New("user code read system memory")
			}
			return nil
		}}
	})
	rt.InstallImage(img)
	sysBlk, err := rt.Plat.DevMem.System.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	leaked <- sysBlk
	hostRun(t, e, func(p *sim.Proc) {
		m, _ := rt.LoadModule(p, "spy.slet")
		app := rt.NewApp(p)
		rt.CreateLet(p, app, m, "idSpy")
		rt.Start(p, app)
		rt.Wait(p, app)
		for _, err := range app.Failed() {
			t.Fatal(err)
		}
	})
}

// funcLet adapts a closure to the SSDlet interface for tests.
type funcLet struct {
	spec Spec
	fn   func(*Context) error
}

func (f funcLet) Spec() Spec           { return f.spec }
func (f funcLet) Run(c *Context) error { return f.fn(c) }

// TestModuleBinaryLoadedFromFile: when the module image is also stored
// as a .slet file on the device file system (Code 3's
// /var/isc/slets/wordcount.slet), loading reads the binary off the
// media, which costs time proportional to its size.
func TestModuleBinaryLoadedFromFile(t *testing.T) {
	e, rt := testRig(t)
	small := NewModuleImage("small.slet", 16<<10).RegisterSSDLet("idEcho", func() SSDlet { return pktEcho{} })
	big := NewModuleImage("big.slet", 16<<10).RegisterSSDLet("idEcho", func() SSDlet { return pktEcho{} })
	rt.InstallImage(small)
	rt.InstallImage(big)
	hostRun(t, e, func(p *sim.Proc) {
		// Store only big.slet as an on-media binary, 4 MiB of it.
		f, err := rt.FS.Create("big.slet")
		if err != nil {
			t.Fatal(err)
		}
		f.Write(p, 0, make([]byte, 4<<20))
		f.Flush(p)

		start := p.Now()
		ms, err := rt.LoadModule(p, "small.slet")
		if err != nil {
			t.Fatal(err)
		}
		smallT := p.Now() - start
		start = p.Now()
		mb, err := rt.LoadModule(p, "big.slet")
		if err != nil {
			t.Fatal(err)
		}
		bigT := p.Now() - start
		if bigT <= smallT {
			t.Fatalf("loading a 4 MiB on-media binary (%v) should cost more than a registry-only one (%v)", bigT, smallT)
		}
		rt.UnloadModule(p, ms)
		rt.UnloadModule(p, mb)
	})
}

// TestErrorMessagesAreActionable: common misuse produces errors that
// name the offending port or module.
func TestErrorMessagesAreActionable(t *testing.T) {
	e, rt := testRig(t)
	rt.InstallImage(wordcountImage())
	hostRun(t, e, func(p *sim.Proc) {
		m, _ := rt.LoadModule(p, "wordcount.slet")
		app := rt.NewApp(p)
		sh, _ := rt.CreateLet(p, app, m, "idShuffler")
		if _, err := rt.CreateLet(p, app, m, "idNoSuch"); err == nil || !strings.Contains(err.Error(), "idNoSuch") {
			t.Fatalf("err=%v", err)
		}
		if err := rt.Connect(p, sh.Out(5), sh.In(0)); !errors.Is(err, ErrBadPort) {
			t.Fatalf("err=%v", err)
		}
		if _, err := rt.ConnectToHost(p, sh.Out(0)); err == nil || !strings.Contains(err.Error(), "Packet") {
			t.Fatalf("string port to host: err=%v", err)
		}
	})
}
