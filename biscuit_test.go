package biscuit

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"biscuit/internal/core"
	"biscuit/internal/isfs"
)

// quickConfig shrinks the NAND geometry so tests run fast while keeping
// the 16-channel parallelism of the paper's device.
func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.NAND.BlocksPerDie = 64
	cfg.NAND.PagesPerBlock = 32
	return cfg
}

// --- wordcount module via the public API (paper Codes 1-3) ---

type wcPair struct {
	Word string
	N    uint32
}

type wcMapper struct{}

func (wcMapper) Spec() Spec { return Spec{Out: []core.SpecType{PortOf[string]()}} }
func (wcMapper) Run(c *Context) error {
	name, _ := c.Arg(0).(string)
	f, err := c.OpenFile(name, isfs.ReadOnly)
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
	c.Compute(2 * float64(len(buf)))
	for _, w := range strings.Fields(string(buf)) {
		out.Put(w)
	}
	return nil
}

type wcReducer struct{}

func (wcReducer) Spec() Spec {
	return Spec{In: []core.SpecType{PortOf[string]()}, Out: []core.SpecType{PacketPort}}
}
func (wcReducer) Run(c *Context) error {
	in, err := In[string](c, 0)
	if err != nil {
		return err
	}
	out, err := Out[Packet](c, 0)
	if err != nil {
		return err
	}
	counts := make(map[string]uint32)
	for {
		w, ok := in.Get()
		if !ok {
			break
		}
		counts[w]++
	}
	for w, n := range counts {
		pkt, err := Encode(wcPair{w, n})
		if err != nil {
			return err
		}
		out.Put(pkt)
	}
	return nil
}

func TestPublicAPIWordcount(t *testing.T) {
	sys := NewSystem(quickConfig())
	sys.Install(NewModule("wordcount.slet", 96<<10).
		RegisterSSDLet("idMapper", func() SSDlet { return wcMapper{} }).
		RegisterSSDLet("idReducer", func() SSDlet { return wcReducer{} }))

	got := map[string]uint32{}
	took := sys.Run(func(h *Host) {
		ssd := h.SSD()
		f, err := ssd.CreateFile("input.txt")
		if err != nil {
			t.Fatal(err)
		}
		ssd.WriteFile(f, 0, []byte("to be or not to be"))

		mid, err := ssd.LoadModule("wordcount.slet")
		if err != nil {
			t.Fatal(err)
		}
		app := ssd.NewApplication()
		mapper, err := app.NewSSDLet(mid, "idMapper", "input.txt")
		if err != nil {
			t.Fatal(err)
		}
		reducer, err := app.NewSSDLet(mid, "idReducer")
		if err != nil {
			t.Fatal(err)
		}
		if err := app.Connect(mapper.Out(0), reducer.In(0)); err != nil {
			t.Fatal(err)
		}
		port, err := ConnectTo[wcPair](app, reducer.Out(0))
		if err != nil {
			t.Fatal(err)
		}
		if err := app.Start(); err != nil {
			t.Fatal(err)
		}
		for {
			v, ok := port.Get()
			if !ok {
				break
			}
			got[v.Word] = v.N
		}
		app.Wait()
		if errs := app.Failed(); len(errs) > 0 {
			t.Fatalf("failures: %v", errs)
		}
		if err := ssd.UnloadModule(mid); err != nil {
			t.Fatal(err)
		}
	})
	if got["to"] != 2 || got["be"] != 2 || got["or"] != 1 || got["not"] != 1 {
		t.Fatalf("counts=%v", got)
	}
	if took <= 0 {
		t.Fatal("virtual time must advance")
	}
}

func TestBuiltinScannerCounts(t *testing.T) {
	sys := NewSystem(quickConfig())
	text := bytes.Repeat([]byte("the quick brown fox ... "), 4096) // ~98 KiB
	// Plant exact needles.
	copy(text[1000:], "NEEDLE")
	copy(text[50000:], "NEEDLE")
	copy(text[90000:], "OTHERKEY")

	var res ScanResult
	sys.Run(func(h *Host) {
		ssd := h.SSD()
		f, _ := ssd.CreateFile("web.log")
		ssd.WriteFile(f, 0, text)
		mid, err := ssd.LoadModule(BuiltinModule)
		if err != nil {
			t.Fatal(err)
		}
		app := ssd.NewApplication()
		sc, err := app.NewSSDLet(mid, ScannerID, ScanArgs{File: "web.log", Keys: []string{"NEEDLE", "OTHERKEY"}, Mode: ScanPositions})
		if err != nil {
			t.Fatal(err)
		}
		port, err := ConnectTo[ScanResult](app, sc.Out(0))
		if err != nil {
			t.Fatal(err)
		}
		app.Start()
		v, ok := port.Get()
		if !ok {
			t.Fatal("no result")
		}
		res = v
		app.Wait()
		if errs := app.Failed(); len(errs) > 0 {
			t.Fatalf("failures: %v", errs)
		}
	})
	if res.Matches != 3 {
		t.Fatalf("matches=%d, want 3 (positions %v)", res.Matches, res.Positions)
	}
	want := []int64{1000, 50000, 90000}
	for i, w := range want {
		if res.Positions[i] != w {
			t.Fatalf("positions=%v, want %v", res.Positions, want)
		}
	}
}

func TestScannerFindsCrossPageMatches(t *testing.T) {
	sys := NewSystem(quickConfig())
	ps := sys.Plat.FTL.PageSize()
	text := bytes.Repeat([]byte{'x'}, 4*ps)
	// Straddle each page boundary.
	for b := 1; b <= 3; b++ {
		copy(text[b*ps-3:], "SEAMKEY")
	}
	var res ScanResult
	sys.Run(func(h *Host) {
		ssd := h.SSD()
		f, _ := ssd.CreateFile("seams")
		ssd.WriteFile(f, 0, text)
		mid, _ := ssd.LoadModule(BuiltinModule)
		app := ssd.NewApplication()
		sc, _ := app.NewSSDLet(mid, ScannerID, ScanArgs{File: "seams", Keys: []string{"SEAMKEY"}, Mode: ScanCount})
		port, _ := ConnectTo[ScanResult](app, sc.Out(0))
		app.Start()
		res, _ = port.Get()
		app.Wait()
		if errs := app.Failed(); len(errs) > 0 {
			t.Fatalf("failures: %v", errs)
		}
	})
	if res.Matches != 3 {
		t.Fatalf("matches=%d, want 3 cross-page hits", res.Matches)
	}
}

func TestScannerRejectsOverLimitKeys(t *testing.T) {
	sys := NewSystem(quickConfig())
	sys.Run(func(h *Host) {
		ssd := h.SSD()
		f, _ := ssd.CreateFile("x")
		ssd.WriteFile(f, 0, []byte("data"))
		mid, _ := ssd.LoadModule(BuiltinModule)
		app := ssd.NewApplication()
		sc, _ := app.NewSSDLet(mid, ScannerID, ScanArgs{File: "x", Keys: []string{"a", "b", "c", "d"}})
		ConnectTo[ScanResult](app, sc.Out(0))
		app.Start()
		app.Wait()
		if len(app.Failed()) != 1 {
			t.Fatalf("failed=%v, want hardware-limit rejection", app.Failed())
		}
	})
}

func TestConvReadMatchesWritten(t *testing.T) {
	sys := NewSystem(quickConfig())
	data := make([]byte, 300000)
	rand.New(rand.NewSource(1)).Read(data)
	sys.Run(func(h *Host) {
		ssd := h.SSD()
		f, _ := ssd.CreateFile("blob")
		ssd.WriteFile(f, 0, data)
		got := make([]byte, len(data))
		if err := ssd.ReadFileConv(f, 0, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("conv read mismatch")
		}
		got2 := make([]byte, len(data))
		if err := ssd.ReadFileConvAsync(f, 0, got2, 64<<10, 8); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got2, data) {
			t.Fatal("conv async read mismatch")
		}
	})
}

func TestScannerMatchesHostGrep(t *testing.T) {
	// Property-style check: the device scanner and a host-side scan of
	// the same bytes agree, for random placements.
	for trial := 0; trial < 3; trial++ {
		sys := NewSystem(quickConfig())
		rng := rand.New(rand.NewSource(int64(trial)))
		text := make([]byte, 200000)
		for i := range text {
			text[i] = byte('a' + rng.Intn(16))
		}
		key := "zqzqz"
		nPlanted := rng.Intn(20)
		for i := 0; i < nPlanted; i++ {
			copy(text[rng.Intn(len(text)-10):], key)
		}
		wantN := int64(bytes.Count(text, []byte(key))) // host reference
		var res ScanResult
		sys.Run(func(h *Host) {
			ssd := h.SSD()
			f, _ := ssd.CreateFile("t")
			ssd.WriteFile(f, 0, text)
			mid, _ := ssd.LoadModule(BuiltinModule)
			app := ssd.NewApplication()
			sc, _ := app.NewSSDLet(mid, ScannerID, ScanArgs{File: "t", Keys: []string{key}, Mode: ScanCount})
			port, _ := ConnectTo[ScanResult](app, sc.Out(0))
			app.Start()
			res, _ = port.Get()
			app.Wait()
			for _, err := range app.Failed() {
				t.Fatal(err)
			}
		})
		// bytes.Count counts non-overlapping; our key cannot overlap
		// itself except trivially, so counts should agree.
		if res.Matches != wantN {
			t.Fatalf("trial %d: device=%d host=%d", trial, res.Matches, wantN)
		}
	}
}

func TestSystemDeterminism(t *testing.T) {
	run := func() (string, int64) {
		sys := NewSystem(quickConfig())
		var out string
		took := sys.Run(func(h *Host) {
			ssd := h.SSD()
			f, _ := ssd.CreateFile("d")
			ssd.WriteFile(f, 0, bytes.Repeat([]byte("abc"), 10000))
			mid, _ := ssd.LoadModule(BuiltinModule)
			app := ssd.NewApplication()
			sc, _ := app.NewSSDLet(mid, ScannerID, ScanArgs{File: "d", Keys: []string{"cab"}, Mode: ScanCount})
			port, _ := ConnectTo[ScanResult](app, sc.Out(0))
			app.Start()
			res, _ := port.Get()
			out = fmt.Sprint(res.Matches)
			app.Wait()
		})
		return out, int64(took)
	}
	o1, t1 := run()
	o2, t2 := run()
	if o1 != o2 || t1 != t2 {
		t.Fatalf("nondeterministic: (%s,%d) vs (%s,%d)", o1, t1, o2, t2)
	}
}

// TestSystemReleasesItsWorkersWhenDropped: a System's simulation
// processes run on coroutines pooled by its Env; once the System is
// unreachable the Env's cleanup stops them, so building and dropping
// platforms does not accumulate goroutines.
func TestSystemReleasesItsWorkersWhenDropped(t *testing.T) {
	settle := func(want int) int {
		n := runtime.NumGoroutine()
		for i := 0; i < 50 && n > want; i++ {
			runtime.GC()
			runtime.Gosched()
			n = runtime.NumGoroutine()
		}
		return n
	}
	base, peak := settle(0), 0
	data := make([]byte, 300000)
	rand.New(rand.NewSource(1)).Read(data)
	for i := 0; i < 3; i++ {
		sys := NewSystem(quickConfig())
		sys.Run(func(h *Host) {
			f, _ := h.SSD().CreateFile("blob")
			h.SSD().WriteFile(f, 0, data)
		})
		if n := runtime.NumGoroutine(); n > peak {
			peak = n
		}
	}
	if peak == base {
		t.Fatal("a write workload ran without a single worker")
	}
	if n := settle(base); n != base {
		t.Fatalf("goroutines %d → %d → %d: dropped Systems kept their workers", base, peak, n)
	}
}
