package bench

import (
	"io"

	"biscuit"
	"biscuit/internal/sim"
)

// Table2 reproduces Table II: one-way communication latency for the
// three I/O port types (host-to-device split into both directions).
type Table2 struct {
	H2D, D2H, InterSSDlet, InterApp sim.Time
}

// paperTable2 is Table II as the paper prints it.
var paperTable2 = Table2{H2D: sim.FromMicros(301.6), D2H: sim.FromMicros(130.1),
	InterSSDlet: sim.FromMicros(31.0), InterApp: sim.FromMicros(10.7)}

// WriteMarkdown renders the four latencies in µs beside the paper's.
func (t Table2) WriteMarkdown(w io.Writer) {
	row := func(name string, t Table2) []string {
		return []string{name, num(t.H2D.Micros()), num(t.D2H.Micros()), num(t.InterSSDlet.Micros()), num(t.InterApp.Micros())}
	}
	table(w, []string{"µs", "H2D", "D2H", "inter-SSDlet", "inter-app"}, row("paper", paperTable2), row("measured", t))
}

// latency SSDlets: a sender and a receiver over one port type, each
// appending its virtual send / receive times to a slice the host pairs
// up afterwards. Instantiated at string (typed inter-SSDlet ports) and
// at Packet (host and inter-application ports).

type latArgs struct {
	n     int
	times *[]sim.Time
}

func loopSpec[T any]() biscuit.Spec {
	port := []biscuit.SpecType{biscuit.PortOf[T]()}
	return biscuit.Spec{In: port, Out: port}
}

// sendLet emits item n times, recording each send time.
type sendLet[T any] struct{ item T }

func (sendLet[T]) Spec() biscuit.Spec { return loopSpec[T]() }

func (s sendLet[T]) Run(c *biscuit.Context) error {
	args := c.Arg(0).(latArgs)
	out, err := biscuit.Out[T](c, 0)
	if err != nil {
		return err
	}
	in, err := biscuit.In[T](c, 0)
	if err != nil {
		return err
	}
	for i := 0; i < args.n; i++ {
		*args.times = append(*args.times, c.Now())
		if !out.Put(s.item) {
			break
		}
		// Wait for the ack so exactly one item is ever in flight —
		// we are measuring latency, not throughput.
		if _, ok := in.Get(); !ok {
			break
		}
	}
	return nil
}

// recvLet receives n items, recording each receive time, and sends each
// straight back as the ack.
type recvLet[T any] struct{}

func (recvLet[T]) Spec() biscuit.Spec { return loopSpec[T]() }

func (recvLet[T]) Run(c *biscuit.Context) error {
	args := c.Arg(0).(latArgs)
	in, err := biscuit.In[T](c, 0)
	if err != nil {
		return err
	}
	out, err := biscuit.Out[T](c, 0)
	if err != nil {
		return err
	}
	for i := 0; i < args.n; i++ {
		v, ok := in.Get()
		if !ok {
			break
		}
		*args.times = append(*args.times, c.Now())
		if !out.Put(v) {
			break
		}
	}
	return nil
}

func ping() biscuit.Packet { return biscuit.NewPacket([]byte{1}) }

func latModule() *biscuit.ModuleImage {
	return biscuit.NewModule("latency.slet", 32<<10).
		RegisterSSDLet("idSend", func() biscuit.SSDlet { return sendLet[string]{"x"} }).
		RegisterSSDLet("idRecv", func() biscuit.SSDlet { return recvLet[string]{} }).
		RegisterSSDLet("idPktSend", func() biscuit.SSDlet { return sendLet[biscuit.Packet]{ping()} }).
		RegisterSSDLet("idPktRecv", func() biscuit.SSDlet { return recvLet[biscuit.Packet]{} })
}

func meanGap(send, recv []sim.Time) sim.Time {
	n := min(len(send), len(recv))
	if n == 0 {
		return 0
	}
	var total sim.Time
	for i := 0; i < n; i++ {
		total += recv[i] - send[i]
	}
	return total / sim.Time(n)
}

// latIters is the number of one-in-flight round trips each mean is
// taken over.
const latIters = 24

// latRig is a host program on a fresh platform with the latency module
// loaded.
type latRig struct {
	h *biscuit.Host
	m *biscuit.Module
}

func onLatRig(fn func(latRig)) {
	sys := newSystem()
	sys.Install(latModule())
	sys.Run(func(h *biscuit.Host) {
		m, err := h.SSD().LoadModule("latency.slet")
		must("table2", err)
		fn(latRig{h, m})
	})
}

// let instantiates one of the module's SSDlets in app, recording into
// times.
func (r latRig) let(app *biscuit.Application, id string, times *[]sim.Time) *biscuit.SSDLet {
	l, err := app.NewSSDLet(r.m, id, latArgs{n: latIters, times: times})
	must("table2", err)
	return l
}

// RunTable2 measures the port latencies with one item in flight.
func RunTable2() Table2 {
	var out Table2

	// Host-to-device / device-to-host via the channel manager: the
	// device-side receive times end the H2D leg and start the D2H leg.
	onLatRig(func(r latRig) {
		app := r.h.SSD().NewApplication()
		var hostSend, dev, hostRecv []sim.Time
		echo := r.let(app, "idPktRecv", &dev)
		down, err := biscuit.ConnectFrom[biscuit.Packet](app, echo.In(0))
		must("table2", err)
		up, err := biscuit.ConnectTo[biscuit.Packet](app, echo.Out(0))
		must("table2", err)
		must("table2", app.Start())
		for i := 0; i < latIters; i++ {
			hostSend = append(hostSend, r.h.Now())
			if !down.Put(ping()) {
				break
			}
			if _, ok := up.GetPacket(); !ok {
				break
			}
			hostRecv = append(hostRecv, r.h.Now())
		}
		down.Close()
		must("table2", app.Wait())
		out.H2D = meanGap(hostSend, dev)
		out.D2H = meanGap(dev, hostRecv)
	})

	// Inter-SSDlet (typed ports, same application).
	onLatRig(func(r latRig) {
		app := r.h.SSD().NewApplication()
		var sendT, recvT []sim.Time
		s, rcv := r.let(app, "idSend", &sendT), r.let(app, "idRecv", &recvT)
		must("table2", app.Connect(s.Out(0), rcv.In(0)))
		must("table2", app.Connect(rcv.Out(0), s.In(0)))
		must("table2", app.Start())
		must("table2", app.Wait())
		out.InterSSDlet = meanGap(sendT, recvT)
	})

	// Inter-application (Packet ports, two applications on different
	// cores).
	onLatRig(func(r latRig) {
		a1, a2 := r.h.SSD().NewApplication(), r.h.SSD().NewApplication()
		var sendT, recvT []sim.Time
		s, rcv := r.let(a1, "idPktSend", &sendT), r.let(a2, "idPktRecv", &recvT)
		must("table2", a1.ConnectApps(s.Out(0), a2, rcv.In(0)))
		must("table2", a2.ConnectApps(rcv.Out(0), a1, s.In(0)))
		must("table2", a1.Start())
		must("table2", a2.Start())
		must("table2", a1.Wait())
		must("table2", a2.Wait())
		out.InterApp = meanGap(sendT, recvT)
	})
	return out
}
