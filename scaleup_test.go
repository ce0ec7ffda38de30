package biscuit

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"biscuit/internal/sim"
)

func multiQuickConfig() Config {
	cfg := DefaultConfig()
	cfg.NAND.BlocksPerDie = 128
	cfg.NAND.PagesPerBlock = 32
	return cfg
}

func TestMultiSystemIndependentSSDs(t *testing.T) {
	m := NewMultiSystem(multiQuickConfig(), 3)
	m.Run(func(h *MultiHost) {
		// Each drive has its own namespace.
		for i := 0; i < h.N(); i++ {
			ssd := h.Unit(i).SSD()
			f, err := ssd.CreateFile("data")
			if err != nil {
				t.Fatal(err)
			}
			ssd.WriteFile(f, 0, []byte(fmt.Sprintf("ssd-%d", i)))
		}
		for i := 0; i < h.N(); i++ {
			ssd := h.Unit(i).SSD()
			f, err := ssd.OpenFile("data", true)
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, f.Size())
			if err := ssd.ReadFileConv(f, 0, buf); err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf("ssd-%d", i); string(buf) != want {
				t.Fatalf("drive %d holds %q, want %q", i, buf, want)
			}
		}
	})
}

// TestScaleUpAggregateScanBandwidth runs the built-in scanner across 1,
// 2 and 4 drives concurrently over the same total data volume: the
// Scale-up organization's aggregate in-storage scan rate grows with the
// number of drives (paper Fig. 1(b): "more aggregate compute resources
// as well as internal media bandwidth").
func TestScaleUpAggregateScanBandwidth(t *testing.T) {
	const totalData = 32 << 20
	shardScan := func(n int) sim.Time {
		m := NewMultiSystem(multiQuickConfig(), n)
		var took sim.Time
		m.Run(func(h *MultiHost) {
			shard := bytes.Repeat([]byte("loglineloglineXX"), totalData/n/16)
			for i := 0; i < n; i++ {
				ssd := h.Unit(i).SSD()
				f, err := ssd.CreateFile("shard")
				if err != nil {
					t.Fatal(err)
				}
				ssd.WriteFile(f, 0, shard)
			}
			start := h.Now()
			evs := make([]*sim.Event, n)
			for i := 0; i < n; i++ {
				i := i
				evs[i] = h.Go(fmt.Sprintf("scan-%d", i), func(h2 *MultiHost) {
					unit := h2.Unit(i)
					ssd := unit.SSD()
					mod, err := ssd.LoadModule(BuiltinModule)
					if err != nil {
						t.Error(err)
						return
					}
					app := ssd.NewApplication()
					let, err := app.NewSSDLet(mod, ScannerID,
						ScanArgs{File: "shard", Keys: []string{"logline"}, Mode: ScanCount})
					if err != nil {
						t.Error(err)
						return
					}
					port, err := ConnectTo[ScanResult](app, let.Out(0))
					if err != nil {
						t.Error(err)
						return
					}
					app.Start()
					res, ok := port.Get()
					app.Wait()
					if !ok || res.Matches == 0 {
						t.Errorf("drive %d found nothing", i)
					}
				})
			}
			h.Wait(evs...)
			took = h.Now() - start
		})
		return took
	}
	t1 := shardScan(1)
	t2 := shardScan(2)
	t4 := shardScan(4)
	if float64(t1)/float64(t2) < 1.5 {
		t.Fatalf("2 drives should scan ~2x faster: %v vs %v", t1, t2)
	}
	if float64(t1)/float64(t4) < 2.5 {
		t.Fatalf("4 drives should scan ~3-4x faster: %v vs %v", t1, t4)
	}
	t.Logf("scale-up scan of %d MiB: 1 drive %v, 2 drives %v, 4 drives %v", totalData>>20, t1, t2, t4)
}

func TestMultiSystemSharedHostContention(t *testing.T) {
	// A host-side scan slows when load threads hammer the shared memory
	// system, regardless of which drive the data lives on.
	m := NewMultiSystem(multiQuickConfig(), 2)
	m.Run(func(h *MultiHost) {
		u := h.Unit(1)
		plat := u.System().Plat
		var idle, loaded sim.Time
		start := h.Now()
		plat.HostScan(h.Proc(), 4<<20, 3.0)
		idle = h.Now() - start
		plat.SetHostLoad(24)
		start = h.Now()
		plat.HostScan(h.Proc(), 4<<20, 3.0)
		loaded = h.Now() - start
		plat.SetHostLoad(0)
		if loaded <= idle {
			t.Fatalf("shared host must feel contention: %v vs %v", idle, loaded)
		}
		// The load was set through drive 1's platform but drive 0 shares
		// the same host memory system.
		if h.Unit(0).System().Plat.HostMem != plat.HostMem {
			t.Fatal("drives must share the host memory system")
		}
	})
}

// TestOneDriveArrayIsASystem: a System built alone and drive 0 of a
// one-drive array come out of the same builder, so the same host
// program costs the same simulated time on both and leaves the same
// counters and latency distributions behind.
func TestOneDriveArrayIsASystem(t *testing.T) {
	text := bytes.Repeat([]byte("the quick brown fox ... "), 8192)
	program := func(h *Host) {
		ssd := h.SSD()
		f, err := ssd.CreateFile("web.log")
		if err != nil {
			t.Fatal(err)
		}
		if err := ssd.WriteFile(f, 0, text); err != nil {
			t.Fatal(err)
		}
		if err := ssd.ReadFileConv(f, 4096, make([]byte, 64<<10)); err != nil {
			t.Fatal(err)
		}
		mod, err := ssd.LoadModule(BuiltinModule)
		if err != nil {
			t.Fatal(err)
		}
		app := ssd.NewApplication()
		sc, err := app.NewSSDLet(mod, ScannerID, ScanArgs{File: "web.log", Keys: []string{"fox"}, Mode: ScanCount})
		if err != nil {
			t.Fatal(err)
		}
		port, err := ConnectTo[ScanResult](app, sc.Out(0))
		if err != nil {
			t.Fatal(err)
		}
		app.Start()
		if res, ok := port.Get(); !ok || res.Matches != 8192 {
			t.Fatalf("scan = %+v, %v", res, ok)
		}
		app.Wait()
		if err := ssd.UnloadModule(mod); err != nil {
			t.Fatal(err)
		}
	}
	alone := NewSystem(multiQuickConfig())
	tookAlone := alone.Run(program)
	array := NewMultiSystem(multiQuickConfig(), 1)
	tookArray := array.Run(func(h *MultiHost) { program(h.Unit(0)) })
	drive := array.Systems[0]

	if tookAlone != tookArray || alone.Env.Now() != drive.Env.Now() {
		t.Fatalf("program took %v (clock %v) alone, %v (clock %v) on the array",
			tookAlone, alone.Env.Now(), tookArray, drive.Env.Now())
	}
	if a, b := alone.Plat.Ctrs.Snapshot(), drive.Plat.Ctrs.Snapshot(); !reflect.DeepEqual(a, b) {
		t.Errorf("counters differ:\n alone %v\n array %v", a, b)
	}
	a, b := alone.Plat.Hists.Snapshot(), drive.Plat.Hists.Snapshot()
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Errorf("histograms differ (or are empty):\n alone %v\n array %v", a, b)
	}
}

func TestMultiSystemRejectsZeroDrives(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMultiSystem(multiQuickConfig(), 0)
}
