package core

import (
	"errors"
	"testing"

	"biscuit/internal/ports"
	"biscuit/internal/sim"
)

// connectPath is one of the runtime's four ways to bind a port. do
// ignores the side its path does not use.
type connectPath struct {
	name            string
	usesOut, usesIn bool
	twoApps         bool // producer and consumer live in different applications
	packetOnly      bool // §III-C: host and inter-application ports carry only Packet
	do              func(rt *Runtime, p *sim.Proc, from, to PortRef) error
}

var connectPaths = []connectPath{
	{name: "Connect", usesOut: true, usesIn: true,
		do: func(rt *Runtime, p *sim.Proc, from, to PortRef) error { return rt.Connect(p, from, to) }},
	{name: "ConnectApps", usesOut: true, usesIn: true, twoApps: true, packetOnly: true,
		do: func(rt *Runtime, p *sim.Proc, from, to PortRef) error { return rt.ConnectApps(p, from, to) }},
	{name: "ConnectToHost", usesOut: true, packetOnly: true,
		do: func(rt *Runtime, p *sim.Proc, from, _ PortRef) error {
			_, err := rt.ConnectToHost(p, from)
			return err
		}},
	{name: "ConnectFromHost", usesIn: true, packetOnly: true,
		do: func(rt *Runtime, p *sim.Proc, _, to PortRef) error {
			_, err := rt.ConnectFromHost(p, to)
			return err
		}},
}

// connectSentinels are the errors a connect path may answer with.
var connectSentinels = []error{ErrBadPort, ErrPortBound, ErrNotPacket, ErrAppStarted, ErrCrossApp, ErrTypeMismatch}

// TestConnectMatrix pins what each connect path answers to each kind of
// misuse, one fault at a time, by sentinel. Every row gets fresh
// SSDlets (one in, one out port each: Packet for idEcho, string for
// idStr) so no row sees another's bindings.
func TestConnectMatrix(t *testing.T) {
	e, rt := testRig(t)
	rt.InstallImage(NewModuleImage("matrix.slet", 0).
		RegisterSSDLet("idEcho", func() SSDlet { return pktEcho{} }).
		RegisterSSDLet("idStr", func() SSDlet { return wcShuffler{} }))
	hostRun(t, e, func(p *sim.Proc) {
		m, err := rt.LoadModule(p, "matrix.slet")
		if err != nil {
			t.Fatal(err)
		}
		newLet := func(a *App, class string) *letInstance {
			li, err := rt.CreateLet(p, a, m, class)
			if err != nil {
				t.Fatal(err)
			}
			return li
		}
		pair := func(class string, twoApps bool) (prod, cons *letInstance) {
			a1 := rt.NewApp(p)
			a2 := a1
			if twoApps {
				a2 = rt.NewApp(p)
			}
			return newLet(a1, class), newLet(a2, class)
		}
		check := func(row string, got, want error) {
			t.Helper()
			if want == nil && got != nil || want != nil && !errors.Is(got, want) {
				t.Errorf("%s: err = %v, want %v", row, got, want)
			}
		}

		type li = *letInstance
		legal := func(prod, cons li) (PortRef, PortRef) { return prod.Out(0), cons.In(0) }
		start := func(a *App) {
			if err := rt.Start(p, a); err != nil {
				t.Fatal(err)
			}
		}
		for _, path := range connectPaths {
			// row runs path once on a fresh pair; ends plants one fault
			// and names the two ports to connect.
			row := func(name, class string, want error, ends func(prod, cons li) (from, to PortRef)) {
				t.Helper()
				from, to := ends(pair(class, path.twoApps))
				check(path.name+"/"+name, path.do(rt, p, from, to), want)
			}
			row("legal", "idEcho", nil, legal)
			if path.usesOut {
				row("out index -1", "idEcho", ErrBadPort, func(prod, cons li) (PortRef, PortRef) { return prod.Out(-1), cons.In(0) })
				row("out index len", "idEcho", ErrBadPort, func(prod, cons li) (PortRef, PortRef) { return prod.Out(1), cons.In(0) })
				row("an input where the output goes", "idEcho", ErrBadPort, func(prod, cons li) (PortRef, PortRef) { return prod.In(0), cons.In(0) })
				row("out bound to a host port", "idEcho", ErrPortBound, func(prod, cons li) (PortRef, PortRef) {
					if _, err := rt.ConnectToHost(p, prod.Out(0)); err != nil {
						t.Fatal(err)
					}
					return legal(prod, cons)
				})
				row("producer's application started", "idEcho", ErrAppStarted, func(prod, cons li) (PortRef, PortRef) {
					start(prod.app)
					return legal(prod, cons)
				})
			}
			if path.usesIn {
				row("in index -1", "idEcho", ErrBadPort, func(prod, cons li) (PortRef, PortRef) { return prod.Out(0), cons.In(-1) })
				row("in index len", "idEcho", ErrBadPort, func(prod, cons li) (PortRef, PortRef) { return prod.Out(0), cons.In(1) })
				row("an output where the input goes", "idEcho", ErrBadPort, func(prod, cons li) (PortRef, PortRef) { return prod.Out(0), cons.Out(0) })
				row("in bound to a host port", "idEcho", ErrPortBound, func(prod, cons li) (PortRef, PortRef) {
					if _, err := rt.ConnectFromHost(p, cons.In(0)); err != nil {
						t.Fatal(err)
					}
					return legal(prod, cons)
				})
				row("consumer's application started", "idEcho", ErrAppStarted, func(prod, cons li) (PortRef, PortRef) {
					start(cons.app)
					return legal(prod, cons)
				})
			}
			var stringPorts error // legal between SSDlets of one application
			if path.packetOnly {
				stringPorts = ErrNotPacket
			}
			row("string ports", "idStr", stringPorts, legal)
		}

		// The two paths that take both endpoints each refuse the
		// other's topology.
		prod, cons := pair("idEcho", true)
		check("Connect/across applications", rt.Connect(p, prod.Out(0), cons.In(0)), ErrCrossApp)
		prod, cons = pair("idEcho", false)
		err = rt.ConnectApps(p, prod.Out(0), cons.In(0))
		if err == nil {
			t.Error("ConnectApps/within one application: no error")
		}
		for _, s := range connectSentinels {
			if errors.Is(err, s) {
				t.Errorf("ConnectApps/within one application: err = %v, want an error outside the sentinels", err)
			}
		}

		// Only Connect shares a queue: fan-out and fan-in are legal,
		// a pair of endpoints that are both bound is not.
		prod, cons = pair("idEcho", false)
		cons2, prod2 := newLet(prod.app, "idEcho"), newLet(prod.app, "idEcho")
		check("Connect/first", rt.Connect(p, prod.Out(0), cons.In(0)), nil)
		check("Connect/fan-out", rt.Connect(p, prod.Out(0), cons2.In(0)), nil)
		check("Connect/both bound", rt.Connect(p, prod.Out(0), cons.In(0)), ErrPortBound)
		check("Connect/fan-in", rt.Connect(p, prod2.Out(0), cons.In(0)), nil)
	})
}

// oneShot emits a single packet and returns.
type oneShot struct{}

func (oneShot) Spec() Spec { return Spec{Out: []SpecType{PacketType}} }
func (oneShot) Run(c *Context) error {
	out, err := Out[ports.Packet](c, 0)
	if err != nil {
		return err
	}
	out.Put(ports.NewPacket([]byte{1}))
	return nil
}

// TestChannelPoolExhaustionBlocksTheNextBinder holds every data channel
// of the pool (32 host ports on an application that has not started),
// then binds a 33rd port from a second host thread: it must block in
// the channel manager until a pumping SSDlet of the first application
// has finished and handed its channel back (§IV-B: "to limit the total
// number of channels simultaneously used").
func TestChannelPoolExhaustionBlocksTheNextBinder(t *testing.T) {
	const pool = dataChannelLimit
	e, rt := testRig(t)
	rt.InstallImage(NewModuleImage("one.slet", 0).
		RegisterSSDLet("idOne", func() SSDlet { return oneShot{} }))
	cm := rt.ChannelManager()
	var boundAt sim.Time // when the 33rd bind returned; 0 = not yet
	hostRun(t, e, func(p *sim.Proc) {
		m, err := rt.LoadModule(p, "one.slet")
		if err != nil {
			t.Fatal(err)
		}
		held := rt.NewApp(p)
		var heldPorts []*HostIn
		for i := 0; i < pool; i++ {
			li, err := rt.CreateLet(p, held, m, "idOne")
			if err != nil {
				t.Fatal(err)
			}
			port, err := rt.ConnectToHost(p, li.Out(0))
			if err != nil {
				t.Fatal(err)
			}
			heldPorts = append(heldPorts, port)
		}
		if cm.InUse() != pool {
			t.Fatalf("InUse = %d with %d ports bound", cm.InUse(), pool)
		}

		late := rt.NewApp(p)
		lateLet, err := rt.CreateLet(p, late, m, "idOne")
		if err != nil {
			t.Fatal(err)
		}
		var latePort *HostIn
		lateDone := e.NewEvent()
		e.Spawn("host-2", func(p2 *sim.Proc) {
			var err error
			if latePort, err = rt.ConnectToHost(p2, lateLet.Out(0)); err != nil {
				t.Error(err)
			}
			boundAt = p2.Now()
			lateDone.Fire()
		})

		p.Sleep(10 * sim.Millisecond) // far longer than a control round trip
		if boundAt != 0 {
			t.Fatalf("33rd port bound at %v with all %d channels held", boundAt, pool)
		}
		startedAt := p.Now()
		if err := rt.Start(p, held); err != nil {
			t.Fatal(err)
		}
		p.Wait(lateDone)
		if boundAt <= startedAt {
			t.Fatalf("33rd port bound at %v, before the holders started at %v", boundAt, startedAt)
		}
		finished := 0
		for _, li := range held.lets {
			if li.done.Fired() {
				finished++
			}
		}
		if finished == 0 {
			t.Fatal("33rd port bound before any pumping SSDlet finished")
		}

		if err := rt.Start(p, late); err != nil {
			t.Fatal(err)
		}
		for _, port := range append(heldPorts, latePort) {
			if _, ok := port.Get(p); !ok {
				t.Fatal("a port delivered no packet")
			}
			if _, ok := port.Get(p); ok {
				t.Fatal("a port delivered a second packet")
			}
		}
		for _, a := range []*App{held, late} {
			if err := rt.Wait(p, a); err != nil {
				t.Fatal(err)
			}
			for _, err := range a.Failed() {
				t.Error(err)
			}
		}
	})
	if cm.InUse() != 0 {
		t.Fatalf("InUse = %d after every port drained", cm.InUse())
	}
	created, reused, transfers, _, _ := cm.Stats()
	if created != pool || reused != 1 || transfers != pool+1 {
		t.Fatalf("created=%d reused=%d transfers=%d, want %d + 1 = the %d ports bound, one packet each",
			created, reused, transfers, pool, pool+1)
	}
}
