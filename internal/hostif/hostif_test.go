package hostif

import (
	"bytes"
	"testing"

	"biscuit/internal/cpu"
	"biscuit/internal/ftl"
	"biscuit/internal/nand"
	"biscuit/internal/sim"
)

func testStack() (*sim.Env, *Interface, *ftl.FTL) {
	e := sim.NewEnv()
	ncfg := nand.Config{
		Channels:       4,
		WaysPerChannel: 2,
		BlocksPerDie:   32,
		PagesPerBlock:  16,
		PageSize:       4096,
	}
	f := ftl.New(e, nand.New(e, ncfg), ftl.DefaultConfig())
	host := cpu.New(e, "host", 24, 2.5e9)
	dev := cpu.New(e, "devfw", 2, 750e6)
	return e, New(e, Config{}, f, host, dev), f
}

// TestHostWriteReadRoundTrip: a conventional read returns what the host
// wrote. Host writes reach the media through the FTL (isfs → FTL), not
// through an NVMe command.
func TestHostWriteReadRoundTrip(t *testing.T) {
	e, hi, _ := testStack()
	want := bytes.Repeat([]byte{0x5A}, 10000)
	e.Spawn("host", func(p *sim.Proc) {
		hi.ftl.WriteRange(p, 123, want)
		got := make([]byte, len(want))
		hi.Read(p, 123, got)
		if !bytes.Equal(got, want) {
			t.Error("round trip mismatch")
		}
	})
	e.Run()
}

func TestHostReadSlowerThanInternal(t *testing.T) {
	e, hi, f := testStack()
	var conv, internal sim.Time
	e.Spawn("host", func(p *sim.Proc) {
		hi.ftl.WriteRange(p, 0, make([]byte, 4096))
		start := p.Now()
		hi.Read(p, 0, make([]byte, 4096))
		conv = p.Now() - start
		start = p.Now()
		f.Read(p, 0, 0, 4096)
		internal = p.Now() - start
	})
	e.Run()
	if conv <= internal {
		t.Fatalf("Conv read %v must exceed internal read %v", conv, internal)
	}
	gap := conv - internal
	if gap < 5*sim.Microsecond || gap > 40*sim.Microsecond {
		t.Fatalf("host-path overhead %v out of plausible range", gap)
	}
	t.Logf("conv=%v internal=%v gap=%v", conv, internal, gap)
}

func TestAsyncReadsOverlap(t *testing.T) {
	e, hi, _ := testStack()
	const n = 8
	var syncTime, asyncTime sim.Time
	e.Spawn("host", func(p *sim.Proc) {
		hi.ftl.WriteRange(p, 0, make([]byte, n*4096))
		start := p.Now()
		for j := 0; j < n; j++ {
			hi.Read(p, int64(j*4096), make([]byte, 4096))
		}
		syncTime = p.Now() - start
		start = p.Now()
		evs := make([]*sim.Completion, n)
		for j := 0; j < n; j++ {
			evs[j] = hi.ReadAsync(p, int64(j*4096), make([]byte, 4096))
		}
		for _, c := range evs {
			p.Wait(c.Event())
		}
		asyncTime = p.Now() - start
	})
	e.Run()
	if asyncTime*2 > syncTime {
		t.Fatalf("async %v should be far below sync %v", asyncTime, syncTime)
	}
}

func TestConvBandwidthCappedByLink(t *testing.T) {
	e, hi, _ := testStack()
	// 4 channels x 400MB/s = 1.6 GB/s media; link = 3.2 GB/s, so here
	// media binds. Use a config where media exceeds link to see the cap.
	e2 := sim.NewEnv()
	ncfg := nand.DefaultConfig() // 16ch, 4.3 GB/s internal
	f2 := ftl.New(e2, nand.New(e2, ncfg), ftl.DefaultConfig())
	hi2 := New(e2, Config{}, f2, cpu.New(e2, "host", 24, 2.5e9), cpu.New(e2, "devfw", 2, 750e6))
	const total = 32 << 20
	var elapsed sim.Time
	e2.Spawn("host", func(p *sim.Proc) {
		f2.WriteRange(p, 0, make([]byte, total)) // preload media directly
		start := p.Now()
		const chunk = 1 << 20
		evs := make([]*sim.Completion, 0, total/chunk)
		for off := int64(0); off < total; off += chunk {
			evs = append(evs, hi2.ReadAsync(p, off, make([]byte, chunk)))
		}
		for _, c := range evs {
			p.Wait(c.Event())
		}
		elapsed = p.Now() - start
	})
	e2.Run()
	bw := float64(total) / elapsed.Seconds()
	if bw > 3.2e9 {
		t.Fatalf("Conv bandwidth %.2f GB/s exceeds PCIe link", bw/1e9)
	}
	if bw < 2.5e9 {
		t.Fatalf("Conv bandwidth %.2f GB/s unreasonably low", bw/1e9)
	}
	t.Logf("Conv asynchronous bandwidth %.2f GB/s (link 3.2)", bw/1e9)
	_ = hi
	_ = e
}

func TestQueueDepthLimitsAdmission(t *testing.T) {
	// With maxQueueDepth reads outstanding, the next command waits on
	// admission for a slot; every command still completes once slots
	// free up.
	e, hi, _ := testStack()
	e.Spawn("host", func(p *sim.Proc) {
		evs := make([]*sim.Event, maxQueueDepth+1)
		for j := range evs {
			evs[j] = hi.ReadAsync(p, int64(j*4096), make([]byte, 4096)).Event()
		}
		p.Sleep(sim.Nanosecond)
		if in, waiting := hi.qd.InUse(), hi.qd.QueueLen(); in != maxQueueDepth || waiting != 1 {
			t.Errorf("%d admitted, %d waiting; want %d admitted, 1 waiting", in, waiting, maxQueueDepth)
		}
		p.WaitAll(evs...)
	})
	e.Run()
	if cmds, _, _ := hi.Stats(); cmds != int64(maxQueueDepth+1) {
		t.Fatalf("%d commands completed, want %d", cmds, maxQueueDepth+1)
	}
}

func TestMessageUsesRightDirection(t *testing.T) {
	e, hi, _ := testStack()
	e.Spawn("x", func(p *sim.Proc) {
		hi.Message(p, false, 1000)
		hi.Message(p, true, 2000)
	})
	e.Run()
	_, up, down := hi.Stats()
	if up != 2000 || down != 1000 {
		t.Fatalf("up=%d down=%d, want 2000/1000", up, down)
	}
}
