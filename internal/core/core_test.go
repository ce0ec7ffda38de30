package core

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"biscuit/internal/device"
	"biscuit/internal/isfs"
	"biscuit/internal/ports"
	"biscuit/internal/sim"
)

// testRig builds a platform, formats the FS and returns a runtime.
func testRig(t *testing.T) (*sim.Env, *Runtime) {
	t.Helper()
	e := sim.NewEnv()
	cfg := device.DefaultConfig()
	// Shrink geometry so tests stay fast while keeping 16 channels.
	cfg.NAND.BlocksPerDie = 64
	cfg.NAND.PagesPerBlock = 32
	plat := device.New(e, cfg)
	var rt *Runtime
	e.Spawn("setup", func(p *sim.Proc) {
		fs := isfs.Format(p, plat.FTL)
		rt = NewRuntime(plat, fs)
	})
	e.Run()
	return e, rt
}

func hostRun(t *testing.T, e *sim.Env, fn func(p *sim.Proc)) {
	t.Helper()
	e.Spawn("host", fn)
	e.Run()
}

// ---- wordcount SSDlets (the paper's Fig. 5 / Codes 1-3 example) ----

type wcPair struct {
	Word string
	N    uint32
}

type wcMapper struct{}

func (wcMapper) Spec() Spec { return Spec{Out: []reflect.Type{PortType[string]()}} }

func (wcMapper) Run(c *Context) error {
	fileName, _ := c.Arg(0).(string)
	f, err := c.OpenFile(fileName, isfs.ReadOnly)
	if err != nil {
		return err
	}
	out, err := Out[string](c, 0)
	if err != nil {
		return err
	}
	buf := make([]byte, f.Size())
	if _, err := c.ReadFile(f, 0, buf); err != nil {
		return err
	}
	c.Compute(float64(len(buf)) * 2) // tokenize cost: 2 cycles/byte
	for _, w := range strings.Fields(string(buf)) {
		out.Put(w)
	}
	return nil
}

type wcShuffler struct{}

func (wcShuffler) Spec() Spec {
	return Spec{In: []reflect.Type{PortType[string]()}, Out: []reflect.Type{PortType[string]()}}
}

func (wcShuffler) Run(c *Context) error {
	in, err := In[string](c, 0)
	if err != nil {
		return err
	}
	out, err := Out[string](c, 0)
	if err != nil {
		return err
	}
	for {
		w, ok := in.Get()
		if !ok {
			return nil
		}
		out.Put(w)
	}
}

type wcReducer struct{}

func (wcReducer) Spec() Spec {
	return Spec{In: []reflect.Type{PortType[string]()}, Out: []reflect.Type{PacketType}}
}

func (wcReducer) Run(c *Context) error {
	in, err := In[string](c, 0)
	if err != nil {
		return err
	}
	out, err := Out[ports.Packet](c, 0)
	if err != nil {
		return err
	}
	counts := make(map[string]uint32)
	for {
		w, ok := in.Get()
		if !ok {
			break
		}
		c.Compute(20)
		counts[w]++
	}
	words := make([]string, 0, len(counts))
	for w := range counts {
		words = append(words, w)
	}
	sort.Strings(words)
	for _, w := range words {
		pkt, err := ports.Encode(wcPair{w, counts[w]})
		if err != nil {
			return err
		}
		out.Put(pkt)
	}
	return nil
}

func wordcountImage() *ModuleImage {
	return NewModuleImage("wordcount.slet", 96<<10).
		RegisterSSDLet("idMapper", func() SSDlet { return wcMapper{} }).
		RegisterSSDLet("idShuffler", func() SSDlet { return wcShuffler{} }).
		RegisterSSDLet("idReducer", func() SSDlet { return wcReducer{} })
}

func TestWordcountEndToEnd(t *testing.T) {
	e, rt := testRig(t)
	rt.InstallImage(wordcountImage())
	got := make(map[string]uint32)
	hostRun(t, e, func(p *sim.Proc) {
		f, err := rt.FS.Create("input.txt")
		if err != nil {
			t.Fatal(err)
		}
		f.Write(p, 0, []byte("the quick brown fox jumps over the lazy dog the fox"))
		f.Flush(p)

		m, err := rt.LoadModule(p, "wordcount.slet")
		if err != nil {
			t.Fatal(err)
		}
		app := rt.NewApp(p)
		mp, err := rt.CreateLet(p, app, m, "idMapper", "input.txt")
		if err != nil {
			t.Fatal(err)
		}
		sh, _ := rt.CreateLet(p, app, m, "idShuffler")
		rd, _ := rt.CreateLet(p, app, m, "idReducer")
		if err := rt.Connect(p, mp.Out(0), sh.In(0)); err != nil {
			t.Fatal(err)
		}
		if err := rt.Connect(p, sh.Out(0), rd.In(0)); err != nil {
			t.Fatal(err)
		}
		port, err := rt.ConnectToHost(p, rd.Out(0))
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Start(p, app); err != nil {
			t.Fatal(err)
		}
		for {
			pkt, ok := port.Get(p)
			if !ok {
				break
			}
			pair, err := ports.Decode[wcPair](pkt)
			if err != nil {
				t.Fatal(err)
			}
			got[pair.Word] = pair.N
		}
		if err := rt.Wait(p, app); err != nil {
			t.Fatal(err)
		}
		for _, err := range app.Failed() {
			t.Errorf("SSDlet failure: %v", err)
		}
		if err := rt.UnloadModule(p, m); err != nil {
			t.Fatal(err)
		}
	})
	if got["the"] != 3 || got["fox"] != 2 || got["dog"] != 1 {
		t.Fatalf("counts=%v", got)
	}
	if len(got) != 8 {
		t.Fatalf("distinct words=%d, want 8 (%v)", len(got), got)
	}
}

func TestLoadUnknownModuleFails(t *testing.T) {
	e, rt := testRig(t)
	hostRun(t, e, func(p *sim.Proc) {
		if _, err := rt.LoadModule(p, "missing.slet"); !errors.Is(err, ErrNoImage) {
			t.Fatalf("err=%v", err)
		}
	})
}

func TestUnloadWithLiveInstancesFails(t *testing.T) {
	e, rt := testRig(t)
	rt.InstallImage(wordcountImage())
	hostRun(t, e, func(p *sim.Proc) {
		m, _ := rt.LoadModule(p, "wordcount.slet")
		app := rt.NewApp(p)
		rt.CreateLet(p, app, m, "idShuffler")
		if err := rt.UnloadModule(p, m); !errors.Is(err, ErrModuleInUse) {
			t.Fatalf("err=%v", err)
		}
	})
}

func TestConnectTypeMismatchRejected(t *testing.T) {
	e, rt := testRig(t)
	img := NewModuleImage("m.slet", 0).
		RegisterSSDLet("strSrc", func() SSDlet { return wcShuffler{} }).
		RegisterSSDLet("pktSink", func() SSDlet { return pktSink{} })
	rt.InstallImage(img)
	hostRun(t, e, func(p *sim.Proc) {
		m, _ := rt.LoadModule(p, "m.slet")
		app := rt.NewApp(p)
		a, _ := rt.CreateLet(p, app, m, "strSrc")
		b, _ := rt.CreateLet(p, app, m, "pktSink")
		if err := rt.Connect(p, a.Out(0), b.In(0)); !errors.Is(err, ErrTypeMismatch) {
			t.Fatalf("err=%v, want type mismatch (string out -> Packet in)", err)
		}
	})
}

type pktSink struct{}

func (pktSink) Spec() Spec { return Spec{In: []reflect.Type{PacketType}} }
func (pktSink) Run(c *Context) error {
	in, err := In[ports.Packet](c, 0)
	if err != nil {
		return err
	}
	for {
		if _, ok := in.Get(); !ok {
			return nil
		}
	}
}

func TestCrossAppConnectRejected(t *testing.T) {
	e, rt := testRig(t)
	rt.InstallImage(wordcountImage())
	hostRun(t, e, func(p *sim.Proc) {
		m, _ := rt.LoadModule(p, "wordcount.slet")
		a1 := rt.NewApp(p)
		a2 := rt.NewApp(p)
		x, _ := rt.CreateLet(p, a1, m, "idShuffler")
		y, _ := rt.CreateLet(p, a2, m, "idShuffler")
		if err := rt.Connect(p, x.Out(0), y.In(0)); !errors.Is(err, ErrCrossApp) {
			t.Fatalf("err=%v", err)
		}
	})
}

func TestInterAppPortRequiresPacket(t *testing.T) {
	e, rt := testRig(t)
	rt.InstallImage(wordcountImage())
	hostRun(t, e, func(p *sim.Proc) {
		m, _ := rt.LoadModule(p, "wordcount.slet")
		a1, a2 := rt.NewApp(p), rt.NewApp(p)
		x, _ := rt.CreateLet(p, a1, m, "idShuffler") // string ports
		y, _ := rt.CreateLet(p, a2, m, "idShuffler")
		if err := rt.ConnectApps(p, x.Out(0), y.In(0)); !errors.Is(err, ErrNotPacket) {
			t.Fatalf("err=%v", err)
		}
	})
}

type pktEcho struct{ n int }

func (pktEcho) Spec() Spec {
	return Spec{In: []reflect.Type{PacketType}, Out: []reflect.Type{PacketType}}
}
func (s pktEcho) Run(c *Context) error {
	in, err := In[ports.Packet](c, 0)
	if err != nil {
		return err
	}
	out, err := Out[ports.Packet](c, 0)
	if err != nil {
		return err
	}
	for {
		pkt, ok := in.Get()
		if !ok {
			return nil
		}
		out.Put(pkt)
	}
}

func TestInterAppPipelineMovesPackets(t *testing.T) {
	e, rt := testRig(t)
	img := NewModuleImage("echo.slet", 0).
		RegisterSSDLet("idEcho", func() SSDlet { return pktEcho{} })
	rt.InstallImage(img)
	var got []string
	hostRun(t, e, func(p *sim.Proc) {
		m, _ := rt.LoadModule(p, "echo.slet")
		a1, a2 := rt.NewApp(p), rt.NewApp(p)
		e1, _ := rt.CreateLet(p, a1, m, "idEcho")
		e2, _ := rt.CreateLet(p, a2, m, "idEcho")
		send, err := rt.ConnectFromHost(p, e1.In(0))
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.ConnectApps(p, e1.Out(0), e2.In(0)); err != nil {
			t.Fatal(err)
		}
		recv, err := rt.ConnectToHost(p, e2.Out(0))
		if err != nil {
			t.Fatal(err)
		}
		rt.Start(p, a1)
		rt.Start(p, a2)
		for i := 0; i < 3; i++ {
			send.Put(p, ports.NewPacket([]byte(fmt.Sprintf("msg%d", i))))
		}
		send.Close()
		for {
			pkt, ok := recv.Get(p)
			if !ok {
				break
			}
			got = append(got, string(pkt.Bytes()))
		}
		rt.Wait(p, a1)
		rt.Wait(p, a2)
	})
	if len(got) != 3 || got[0] != "msg0" || got[2] != "msg2" {
		t.Fatalf("got=%v", got)
	}
}

type panicky struct{}

func (panicky) Spec() Spec         { return Spec{} }
func (panicky) Run(*Context) error { panic("ill-behaved user code") }

func TestSSDletPanicContained(t *testing.T) {
	e, rt := testRig(t)
	img := NewModuleImage("bad.slet", 0).
		RegisterSSDLet("idBad", func() SSDlet { return panicky{} }).
		RegisterSSDLet("idEcho", func() SSDlet { return pktEcho{} })
	rt.InstallImage(img)
	hostRun(t, e, func(p *sim.Proc) {
		m, _ := rt.LoadModule(p, "bad.slet")
		app := rt.NewApp(p)
		rt.CreateLet(p, app, m, "idBad")
		rt.Start(p, app)
		rt.Wait(p, app)
		if len(app.Failed()) != 1 {
			t.Fatalf("failures=%v, want 1 contained panic", app.Failed())
		}
		// The runtime survives: run another app afterwards.
		app2 := rt.NewApp(p)
		el, _ := rt.CreateLet(p, app2, m, "idEcho")
		send, _ := rt.ConnectFromHost(p, el.In(0))
		recv, _ := rt.ConnectToHost(p, el.Out(0))
		rt.Start(p, app2)
		send.Put(p, ports.NewPacket([]byte("alive")))
		send.Close()
		pkt, ok := recv.Get(p)
		if !ok || string(pkt.Bytes()) != "alive" {
			t.Fatal("runtime unusable after contained panic")
		}
		rt.Wait(p, app2)
	})
}

func TestFanInMPSCAndFanOutSPMC(t *testing.T) {
	e, rt := testRig(t)
	img := NewModuleImage("fan.slet", 0).
		RegisterSSDLet("idGen", func() SSDlet { return strGen{} }).
		RegisterSSDLet("idShuffler", func() SSDlet { return wcShuffler{} }).
		RegisterSSDLet("idCount", func() SSDlet { return strCounter{} })
	rt.InstallImage(img)
	total := 0
	hostRun(t, e, func(p *sim.Proc) {
		m, _ := rt.LoadModule(p, "fan.slet")
		app := rt.NewApp(p)
		g1, _ := rt.CreateLet(p, app, m, "idGen", 10)
		g2, _ := rt.CreateLet(p, app, m, "idGen", 5)
		cnt, _ := rt.CreateLet(p, app, m, "idCount")
		// MPSC fan-in: two generators into one counter.
		if err := rt.Connect(p, g1.Out(0), cnt.In(0)); err != nil {
			t.Fatal(err)
		}
		if err := rt.Connect(p, g2.Out(0), cnt.In(0)); err != nil {
			t.Fatal(err)
		}
		port, _ := rt.ConnectToHost(p, cnt.Out(1))
		rt.Start(p, app)
		pkt, ok := port.Get(p)
		if !ok {
			t.Fatal("no count packet")
		}
		n, err := ports.Decode[int](pkt)
		if err != nil {
			t.Fatal(err)
		}
		total = n
		rt.Wait(p, app)
	})
	if total != 15 {
		t.Fatalf("total=%d, want 15", total)
	}
}

type strGen struct{}

func (strGen) Spec() Spec { return Spec{Out: []reflect.Type{PortType[string]()}} }
func (strGen) Run(c *Context) error {
	out, err := Out[string](c, 0)
	if err != nil {
		return err
	}
	n, _ := c.Arg(0).(int)
	for i := 0; i < n; i++ {
		out.Put("item")
	}
	return nil
}

type strCounter struct{}

func (strCounter) Spec() Spec {
	return Spec{In: []reflect.Type{PortType[string]()}, Out: []reflect.Type{PortType[string](), PacketType}}
}
func (strCounter) Run(c *Context) error {
	in, err := In[string](c, 0)
	if err != nil {
		return err
	}
	out, err := Out[ports.Packet](c, 1)
	if err != nil {
		return err
	}
	n := 0
	for {
		if _, ok := in.Get(); !ok {
			break
		}
		n++
	}
	pkt, err := ports.Encode(n)
	if err != nil {
		return err
	}
	out.Put(pkt)
	return nil
}

func TestHostPortIsSPSC(t *testing.T) {
	e, rt := testRig(t)
	img := NewModuleImage("echo.slet", 0).RegisterSSDLet("idEcho", func() SSDlet { return pktEcho{} })
	rt.InstallImage(img)
	hostRun(t, e, func(p *sim.Proc) {
		m, _ := rt.LoadModule(p, "echo.slet")
		app := rt.NewApp(p)
		el, _ := rt.CreateLet(p, app, m, "idEcho")
		if _, err := rt.ConnectToHost(p, el.Out(0)); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.ConnectToHost(p, el.Out(0)); !errors.Is(err, ErrPortBound) {
			t.Fatalf("second binding err=%v, want ErrPortBound", err)
		}
	})
}

func TestModuleMemoryAccounting(t *testing.T) {
	e, rt := testRig(t)
	rt.InstallImage(wordcountImage())
	hostRun(t, e, func(p *sim.Proc) {
		before := rt.Plat.DevMem.System.Allocated()
		m, _ := rt.LoadModule(p, "wordcount.slet")
		if rt.Plat.DevMem.System.Allocated() <= before {
			t.Fatal("module load must consume system heap")
		}
		rt.UnloadModule(p, m)
		if rt.Plat.DevMem.System.Allocated() != before {
			t.Fatal("module unload must free system heap")
		}
	})
}

func TestAccessors(t *testing.T) {
	e, rt := testRig(t)
	rt.InstallImage(wordcountImage())
	hostRun(t, e, func(p *sim.Proc) {
		m, _ := rt.LoadModule(p, "wordcount.slet")
		if m.Name() != "wordcount.slet" {
			t.Fatalf("module name %q", m.Name())
		}
		if !m.loaded {
			t.Fatal("module not marked loaded")
		}
		app := rt.NewApp(p)
		li, _ := rt.CreateLet(p, app, m, "idShuffler", 42)
		if li.name != "idShuffler#0" {
			t.Fatalf("instance name %q", li.name)
		}
		if len(app.lets) != 1 {
			t.Fatalf("lets=%d", len(app.lets))
		}
		rt.Connect(p, li.Out(0), li.In(0))
		port, _ := rt.ConnectToHost(p, li.Out(0))
		_ = port
		created, _, _, _, _ := rt.ChannelManager().Stats()
		_ = created
		if rt.ChannelManager().InUse() != 0 {
			// ConnectToHost on string port failed above, so nothing held.
			t.Fatalf("channels in use: %d", rt.ChannelManager().InUse())
		}
		rt.Start(p, app)
		rt.Wait(p, app)
		if !li.done.Fired() {
			t.Fatal("instance done event must fire")
		}
		if li.err != nil {
			t.Fatalf("err=%v", li.err)
		}
	})
}
