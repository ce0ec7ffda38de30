package nand

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"biscuit/internal/fault"
	"biscuit/internal/sim"
	"biscuit/internal/trace"
)

func smallConfig() Config {
	return Config{
		Channels:       2,
		WaysPerChannel: 2,
		BlocksPerDie:   4,
		PagesPerBlock:  8,
		PageSize:       4096,
	}
}

func TestDefaultConfigValid(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if bw := float64(cfg.Channels) * channelBW; bw <= 3.2e9*1.3 {
		t.Fatalf("internal BW %.2f GB/s must exceed host link by >30%%", bw/1e9)
	}
	if cfg.Capacity() < 1<<40 {
		t.Fatalf("default capacity %d < 1 TB", cfg.Capacity())
	}
}

func TestConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Config)
		ok   bool
	}{
		{"small", func(*Config) {}, true},
		{"no channels", func(c *Config) { c.Channels = 0 }, false},
		{"no ways", func(c *Config) { c.WaysPerChannel = 0 }, false},
		{"no pages", func(c *Config) { c.PagesPerBlock = 0 }, false},
		{"64 channels fill the mask", func(c *Config) { c.Channels = 64 }, true},
		{"65 channels overflow it", func(c *Config) { c.Channels = 65 }, false},
	} {
		cfg := smallConfig()
		tc.edit(&cfg)
		if err := cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestProgramReadRoundTrip(t *testing.T) {
	e := sim.NewEnv()
	a := New(e, smallConfig())
	want := bytes.Repeat([]byte{0xAB}, 4096)
	e.Spawn("io", func(p *sim.Proc) {
		addr := PPA{Channel: 1, Way: 0, Block: 2, Page: 0}
		a.Program(p, addr, want)
		got, _ := a.Read(p, addr, 0, 4096)
		if !bytes.Equal(got, want) {
			t.Error("read back mismatch")
		}
		if sub, _ := a.Read(p, addr, 100, 16); !bytes.Equal(sub, want[100:116]) {
			t.Error("partial read mismatch")
		}
	})
	e.Run()
}

func TestUnwrittenPageReadsZero(t *testing.T) {
	e := sim.NewEnv()
	a := New(e, smallConfig())
	e.Spawn("io", func(p *sim.Proc) {
		got, _ := a.Read(p, PPA{0, 0, 0, 3}, 0, 64)
		for _, b := range got {
			if b != 0 {
				t.Error("unwritten page must read zero")
			}
		}
	})
	e.Run()
	if a.Written(PPA{0, 0, 0, 3}) {
		t.Error("page must not be marked written")
	}
}

func TestOutOfOrderProgramPanics(t *testing.T) {
	e := sim.NewEnv()
	a := New(e, smallConfig())
	e.Spawn("io", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on out-of-order program")
			}
			panic("stop") // unwind to satisfy sim's panic propagation test below
		}()
		a.Program(p, PPA{0, 0, 0, 1}, nil) // page 0 not yet programmed
	})
	func() {
		defer func() { recover() }()
		e.Run()
	}()
}

func TestEraseResetsBlock(t *testing.T) {
	e := sim.NewEnv()
	a := New(e, smallConfig())
	e.Spawn("io", func(p *sim.Proc) {
		addr := PPA{0, 1, 1, 0}
		a.Program(p, addr, []byte{1, 2, 3})
		a.Erase(p, addr.BlockAddr())
		got, _ := a.Read(p, addr, 0, 3)
		if !bytes.Equal(got, []byte{0, 0, 0}) {
			t.Error("erased page must read zero")
		}
		a.Program(p, addr, []byte{9}) // reprogram after erase must work
	})
	e.Run()
	if a.EraseCount(PPA{0, 1, 1, 0}.BlockAddr()) != 1 {
		t.Error("erase count should be 1")
	}
}

func TestReadTimingSingle(t *testing.T) {
	cfg := smallConfig()
	e := sim.NewEnv()
	a := New(e, cfg)
	var end sim.Time
	e.Spawn("io", func(p *sim.Proc) {
		a.Read(p, PPA{0, 0, 0, 0}, 0, 4096)
		end = p.Now()
	})
	e.Run()
	want := readLatency + channelCmdCost + sim.TransferTime(4096, channelBW)
	if end != want {
		t.Fatalf("read took %v, want %v", end, want)
	}
}

func TestChannelParallelism(t *testing.T) {
	cfg := smallConfig()
	e := sim.NewEnv()
	a := New(e, cfg)
	var ends []sim.Time
	// Two reads on different channels should fully overlap.
	for ch := 0; ch < 2; ch++ {
		e.Spawn("io", func(p *sim.Proc) {
			a.Read(p, PPA{Channel: ch}, 0, 4096)
			ends = append(ends, p.Now())
		})
	}
	e.Run()
	if ends[0] != ends[1] {
		t.Fatalf("cross-channel reads should overlap: %v", ends)
	}
}

func TestSameChannelSerializesBusButOverlapsSense(t *testing.T) {
	cfg := smallConfig()
	e := sim.NewEnv()
	a := New(e, cfg)
	var ends []sim.Time
	// Same channel, different ways: tR overlaps, bus transfers serialize.
	for w := 0; w < 2; w++ {
		e.Spawn("io", func(p *sim.Proc) {
			a.Read(p, PPA{Channel: 0, Way: w}, 0, 4096)
			ends = append(ends, p.Now())
		})
	}
	e.Run()
	xfer := channelCmdCost + sim.TransferTime(4096, channelBW)
	want0 := readLatency + xfer
	want1 := readLatency + 2*xfer
	if ends[0] != want0 || ends[1] != want1 {
		t.Fatalf("ends=%v, want [%v %v]", ends, want0, want1)
	}
}

func TestSameDieSerializesCompletely(t *testing.T) {
	cfg := smallConfig()
	e := sim.NewEnv()
	a := New(e, cfg)
	var ends []sim.Time
	for i := 0; i < 2; i++ {
		e.Spawn("io", func(p *sim.Proc) {
			a.Read(p, PPA{Channel: 0, Way: 0, Block: 0, Page: 0}, 0, 4096)
			ends = append(ends, p.Now())
		})
	}
	e.Run()
	one := readLatency + channelCmdCost + sim.TransferTime(4096, channelBW)
	if ends[1] != 2*one {
		t.Fatalf("same-die reads must serialize: %v, want second at %v", ends, 2*one)
	}
}

func TestReadThroughDeliversDataAndChargesOverhead(t *testing.T) {
	cfg := smallConfig()
	e := sim.NewEnv()
	a := New(e, cfg)
	var end sim.Time
	var got []byte
	e.Spawn("io", func(p *sim.Proc) {
		a.Program(p, PPA{0, 0, 0, 0}, []byte("needle"))
		start := p.Now()
		a.ReadThrough(p, PPA{0, 0, 0, 0}, 0, 4096, 5*sim.Microsecond, func(b []byte) { got = b })
		end = p.Now() - start
	})
	e.Run()
	if string(got[:6]) != "needle" {
		t.Fatalf("sink got %q", got[:6])
	}
	want := readLatency + channelCmdCost + 5*sim.Microsecond + sim.TransferTime(4096, channelBW)
	if end != want {
		t.Fatalf("readthrough took %v, want %v", end, want)
	}
}

// TestProgramKeepsTheCallersPage is the handover law: a full page given
// to Program becomes the stored page, so the view a read lends back is
// that very slice, not a copy of it; a short page is copied into a
// fresh page whose tail reads back zero.
func TestProgramKeepsTheCallersPage(t *testing.T) {
	cfg := smallConfig()
	e := sim.NewEnv()
	a := New(e, cfg)
	full := bytes.Repeat([]byte{0x5A}, cfg.PageSize)
	short := []byte{1, 2, 3}
	fullAt, shortAt := PPA{1, 1, 2, 0}, PPA{0, 1, 0, 0}
	e.Spawn("io", func(p *sim.Proc) {
		if err := a.Program(p, fullAt, full); err != nil {
			t.Fatal(err)
		}
		if err := a.Program(p, shortAt, short); err != nil {
			t.Fatal(err)
		}
		view, err := a.read(p, "nand.read", fullAt, 0, cfg.PageSize, 0)
		if err != nil {
			t.Fatal(err)
		}
		if &view[0] != &full[0] || len(view) != len(full) {
			t.Error("the stored full page is a copy, not the slice Program was handed")
		}
		view, err = a.read(p, "nand.read", shortAt, 0, cfg.PageSize, 0)
		if err != nil {
			t.Fatal(err)
		}
		if &view[0] == &short[0] {
			t.Error("a short page was stored in place; it must be copied into a full page")
		}
		want := append(bytes.Clone(short), make([]byte, cfg.PageSize-len(short))...)
		if !bytes.Equal(view, want) {
			t.Error("a short page does not read back zero-padded")
		}
	})
	e.Run()
}

func TestStatsAccumulate(t *testing.T) {
	e := sim.NewEnv()
	a := New(e, smallConfig())
	e.Spawn("io", func(p *sim.Proc) {
		a.Program(p, PPA{0, 0, 0, 0}, []byte{1})
		a.Read(p, PPA{0, 0, 0, 0}, 0, 4096)
		a.Erase(p, BlockAddr{0, 0, 0})
	})
	e.Run()
	r, w, er, br := a.Stats()
	if r != 1 || w != 1 || er != 1 || br != 4096 {
		t.Fatalf("stats r=%d w=%d e=%d br=%d", r, w, er, br)
	}
}

func TestRoundTripProperty(t *testing.T) {
	cfg := smallConfig()
	e := sim.NewEnv()
	a := New(e, cfg)
	f := func(data []byte, chB, wB, bB uint8) bool {
		if len(data) > cfg.PageSize {
			data = data[:cfg.PageSize]
		}
		addr := PPA{int(chB) % cfg.Channels, int(wB) % cfg.WaysPerChannel, int(bB) % cfg.BlocksPerDie, 0}
		ok := true
		e.Spawn("io", func(p *sim.Proc) {
			st := a.die(addr).blocks[addr.Block]
			if st.programmed > 0 {
				a.Erase(p, addr.BlockAddr())
			}
			a.Program(p, addr, data)
			got, _ := a.Read(p, addr, 0, len(data))
			ok = bytes.Equal(got, data)
		})
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReadAndReadThroughShareOneCommandBody(t *testing.T) {
	// Read and ReadThrough are one page-read command: at the same
	// addresses under the same fault plan they make the same fault
	// decisions, return the same verdicts and take the same time, except
	// that ReadThrough holds the bus ipOverhead longer and the two name
	// their spans and fault sites after themselves.
	const ipOverhead = 5 * sim.Microsecond
	plan := fault.Plan{Seed: 11, CorrectableProb: 0.4, UncorrectableProb: 0.3, CorrectableLatency: 7 * sim.Microsecond}
	type result struct {
		took   []sim.Time
		failed []bool
		kinds  []fault.Kind
		sites  []string
		trace  string
	}
	run := func(through bool) result {
		e := sim.NewEnv()
		a := New(e, smallConfig())
		inj, err := fault.NewInjector(e, plan)
		if err != nil {
			t.Fatal(err)
		}
		a.SetInjector(inj)
		tr := trace.New(e)
		a.SetTracer(tr)
		var res result
		e.Spawn("io", func(p *sim.Proc) {
			for i := 0; i < 40; i++ {
				addr := PPA{Channel: i % 2, Way: (i / 2) % 2, Block: 1, Page: i % 8}
				start := p.Now()
				var err error
				if through {
					err = a.ReadThrough(p, addr, 16, 1024, ipOverhead, func([]byte) {})
				} else {
					_, err = a.Read(p, addr, 16, 1024)
				}
				res.took = append(res.took, p.Now()-start)
				res.failed = append(res.failed, err != nil)
				if err != nil && !errors.Is(err, fault.ErrUncorrectable) {
					t.Errorf("read %d: unexpected error %v", i, err)
				}
			}
		})
		e.Run()
		for _, ev := range inj.Events() {
			res.kinds = append(res.kinds, ev.Kind)
			res.sites = append(res.sites, ev.Site)
		}
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		res.trace = buf.String()
		return res
	}
	rd, rt := run(false), run(true)
	if len(rd.kinds) == 0 || len(rd.kinds) != len(rt.kinds) {
		t.Fatalf("fault schedules differ in length: read %d, readthrough %d", len(rd.kinds), len(rt.kinds))
	}
	for i := range rd.kinds {
		if rd.kinds[i] != rt.kinds[i] {
			t.Fatalf("fault %d: read drew %v, readthrough %v", i, rd.kinds[i], rt.kinds[i])
		}
		if !strings.HasPrefix(rd.sites[i], "nand.read ch") || !strings.HasPrefix(rt.sites[i], "nand.readthrough ch") {
			t.Fatalf("fault %d sites: %q / %q", i, rd.sites[i], rt.sites[i])
		}
	}
	sawFail, sawOK := false, false
	for i := range rd.took {
		if rd.failed[i] != rt.failed[i] {
			t.Fatalf("op %d: read failed=%v, readthrough failed=%v", i, rd.failed[i], rt.failed[i])
		}
		if rt.took[i]-ipOverhead != rd.took[i] {
			t.Fatalf("op %d: readthrough %v - ipOverhead %v != read %v", i, rt.took[i], ipOverhead, rd.took[i])
		}
		sawFail = sawFail || rd.failed[i]
		sawOK = sawOK || !rd.failed[i]
	}
	if !sawFail || !sawOK {
		t.Fatalf("plan must exercise both verdicts (fail=%v ok=%v)", sawFail, sawOK)
	}
	if !strings.Contains(rd.trace, `"nand.read"`) || strings.Contains(rd.trace, `"nand.readthrough"`) {
		t.Error("Read must emit spans named nand.read only")
	}
	if !strings.Contains(rt.trace, `"nand.readthrough"`) || strings.Contains(rt.trace, `"nand.read"`) {
		t.Error("ReadThrough must emit spans named nand.readthrough only")
	}
}

// The borrow contract: Read's result is the caller's own (scribbling on
// it changes no later read); ReadThrough lends the stored page itself —
// the same bytes Read copies, clipped so an append cannot run on into
// the page — and a scan of every page, programmed or not, leaves the
// media's checksum where it was.
func TestReadIsPrivateAndReadThroughLendsTheStoredPage(t *testing.T) {
	cfg := smallConfig()
	e := sim.NewEnv()
	a := New(e, cfg)
	written := PPA{1, 1, 2, 0}
	blank := PPA{0, 1, 3, 0}
	page := make([]byte, cfg.PageSize)
	for i := range page {
		page[i] = byte(i*7 + i>>8)
	}
	mediaSum := func() [sha256.Size]byte {
		h := sha256.New()
		for _, addr := range []PPA{written, blank} {
			buf := make([]byte, cfg.PageSize)
			a.Peek(addr, 0, buf)
			h.Write(buf)
		}
		return [sha256.Size]byte(h.Sum(nil))
	}
	e.Spawn("io", func(p *sim.Proc) {
		if err := a.Program(p, written, page); err != nil {
			t.Error(err)
		}
		before := mediaSum()
		for _, addr := range []PPA{written, blank} {
			for _, span := range [][2]int{{0, cfg.PageSize}, {100, 300}, {cfg.PageSize - 1, 1}, {7, 0}} {
				off, n := span[0], span[1]
				first, err := a.Read(p, addr, off, n)
				if err != nil {
					t.Error(err)
				}
				want := bytes.Clone(first)
				for i := range first {
					first[i] ^= 0xFF
				}
				_ = append(first, 0xEE)
				var lent []byte
				if err := a.ReadThrough(p, addr, off, n, 0, func(b []byte) {
					lent = bytes.Clone(b)
					if cap(b) != len(b) {
						t.Errorf("%v [%d,+%d): lent view has cap %d", addr, off, n, cap(b))
					}
				}); err != nil {
					t.Error(err)
				}
				again, _ := a.Read(p, addr, off, n)
				if !bytes.Equal(lent, want) || !bytes.Equal(again, want) {
					t.Errorf("%v [%d,+%d): a scribbled-on Read result changed a later read", addr, off, n)
				}
			}
		}
		if mediaSum() != before {
			t.Error("stored pages changed under reads")
		}
	})
	e.Run()
}

// ReadThrough is the simulator's most-executed media call: it lends,
// it does not copy.
func TestReadThroughDoesNotCopyThePage(t *testing.T) {
	cfg := smallConfig()
	e := sim.NewEnv()
	a := New(e, cfg)
	var n1, n2 uint64
	e.Spawn("io", func(p *sim.Proc) {
		a.Program(p, PPA{0, 0, 0, 0}, []byte("needle"))
		sink := func([]byte) {}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		n1 = ms.TotalAlloc
		for i := 0; i < 64; i++ {
			a.ReadThrough(p, PPA{0, 0, 0, 0}, 0, cfg.PageSize, 0, sink)
			a.ReadThrough(p, PPA{1, 0, 0, 0}, 0, cfg.PageSize, 0, sink)
		}
		runtime.ReadMemStats(&ms)
		n2 = ms.TotalAlloc
	})
	e.Run()
	if per := (n2 - n1) / 128; per >= uint64(cfg.PageSize)/4 {
		t.Fatalf("ReadThrough allocates %d B per %d B page", per, cfg.PageSize)
	}
}
