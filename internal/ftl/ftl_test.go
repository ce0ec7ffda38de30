package ftl

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"biscuit/internal/nand"
	"biscuit/internal/sim"
)

func smallNAND() nand.Config {
	return nand.Config{
		Channels:       4,
		WaysPerChannel: 2,
		BlocksPerDie:   16,
		PagesPerBlock:  8,
		PageSize:       4096,
	}
}

func newFTL(t *testing.T) (*sim.Env, *FTL) {
	t.Helper()
	e := sim.NewEnv()
	arr := nand.New(e, smallNAND())
	return e, New(e, arr, DefaultConfig())
}

func TestCapacityReflectsOverProvision(t *testing.T) {
	_, f := newFTL(t)
	total := smallNAND().TotalPages()
	if f.NumPages() >= total {
		t.Fatalf("logical pages %d must be < physical %d", f.NumPages(), total)
	}
	// Raw capacity minus OP, minus the frontier/GC superblock reserve,
	// minus one parity page per W data pages (with its own OP margin).
	cfg := smallNAND()
	want := float64(total)*0.9 - float64(5*cfg.Dies()*cfg.PagesPerBlock)
	if w := f.StripeWidth(); w > 0 {
		want *= float64(w) / float64(w+1) * 0.9
	}
	if f.NumPages() < int(want) {
		t.Fatalf("capacity reserves too large: %d of %d (floor %d)", f.NumPages(), total, int(want))
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	e, f := newFTL(t)
	want := bytes.Repeat([]byte{7}, 4096)
	e.Spawn("io", func(p *sim.Proc) {
		f.Write(p, 5, 0, want)
		if got, _ := f.Read(p, 5, 0, 4096); !bytes.Equal(got, want) {
			t.Error("round trip mismatch")
		}
	})
	e.Run()
}

func TestPartialWriteReadModifyWrite(t *testing.T) {
	e, f := newFTL(t)
	e.Spawn("io", func(p *sim.Proc) {
		f.Write(p, 0, 0, bytes.Repeat([]byte{1}, 4096))
		f.Write(p, 0, 100, []byte{9, 9, 9})
		got, _ := f.Read(p, 0, 98, 7)
		want := []byte{1, 1, 9, 9, 9, 1, 1}
		if !bytes.Equal(got, want) {
			t.Errorf("got %v want %v", got, want)
		}
	})
	e.Run()
}

func TestUnmappedReadsZero(t *testing.T) {
	e, f := newFTL(t)
	e.Spawn("io", func(p *sim.Proc) {
		got, _ := f.Read(p, 17, 0, 8)
		if !bytes.Equal(got, make([]byte, 8)) {
			t.Error("unmapped page must read zero")
		}
	})
	e.Run()
	if f.Mapped(17) {
		t.Error("page should be unmapped")
	}
}

func TestTrimUnmaps(t *testing.T) {
	e, f := newFTL(t)
	e.Spawn("io", func(p *sim.Proc) {
		f.Write(p, 3, 0, []byte{1, 2, 3})
		f.Trim(3)
		if f.Mapped(3) {
			t.Error("trimmed page still mapped")
		}
		if got, _ := f.Read(p, 3, 0, 3); !bytes.Equal(got, []byte{0, 0, 0}) {
			t.Error("trimmed page must read zero")
		}
	})
	e.Run()
}

func TestOverwriteInvalidatesOld(t *testing.T) {
	e, f := newFTL(t)
	e.Spawn("io", func(p *sim.Proc) {
		f.Write(p, 2, 0, bytes.Repeat([]byte{1}, 4096))
		f.Write(p, 2, 0, bytes.Repeat([]byte{2}, 4096))
		got, _ := f.Read(p, 2, 0, 1)
		if got[0] != 2 {
			t.Errorf("read %d after overwrite, want 2", got[0])
		}
	})
	e.Run()
}

func TestGCReclaimsSpaceAndPreservesData(t *testing.T) {
	e, f := newFTL(t)
	// Hammer a small logical window so most physical pages invalidate,
	// forcing GC, then verify all logical contents survive.
	const window = 20
	rng := rand.New(rand.NewSource(1))
	latest := make(map[int]byte)
	e.Spawn("io", func(p *sim.Proc) {
		for i := 0; i < f.Array().Config().TotalPages()*2; i++ {
			lpn := rng.Intn(window)
			v := byte(rng.Intn(256))
			f.Write(p, lpn, 0, bytes.Repeat([]byte{v}, 64))
			latest[lpn] = v
		}
		for lpn, v := range latest {
			got, _ := f.Read(p, lpn, 0, 64)
			for _, b := range got {
				if b != v {
					t.Errorf("lpn %d corrupted after GC: got %d want %d", lpn, b, v)
					return
				}
			}
		}
	})
	e.Run()
	rounds, moves := f.GCStats()
	if rounds == 0 {
		t.Fatal("expected GC to run")
	}
	t.Logf("GC rounds=%d moves=%d maxErase=%d", rounds, moves, f.MaxErase())
}

func TestReadRangeSpansPages(t *testing.T) {
	e, f := newFTL(t)
	ps := f.PageSize()
	data := make([]byte, 3*ps)
	for i := range data {
		data[i] = byte(i % 251)
	}
	e.Spawn("io", func(p *sim.Proc) {
		f.WriteRange(p, 0, data)
		got, _ := f.ReadRange(p, int64(ps)-10, 20) // crosses page boundary
		if !bytes.Equal(got, data[ps-10:ps+10]) {
			t.Error("cross-page read mismatch")
		}
		all, _ := f.ReadRange(p, 0, len(data))
		if !bytes.Equal(all, data) {
			t.Error("full range mismatch")
		}
	})
	e.Run()
}

func TestReadRangeParallelismBeatsSerial(t *testing.T) {
	e, f := newFTL(t)
	ps := f.PageSize()
	nPages := 8 // == number of dies; all should overlap
	data := make([]byte, nPages*ps)
	var rangeTime, serialTime sim.Time
	e.Spawn("io", func(p *sim.Proc) {
		f.WriteRange(p, 0, data)
		start := p.Now()
		f.ReadRange(p, 0, len(data))
		rangeTime = p.Now() - start
		start = p.Now()
		for i := 0; i < nPages; i++ {
			f.Read(p, i, 0, ps)
		}
		serialTime = p.Now() - start
	})
	e.Run()
	if rangeTime*3 > serialTime {
		t.Fatalf("parallel range read %v should be well under serial %v", rangeTime, serialTime)
	}
}

func TestReadRangeThroughStreamsAllBytes(t *testing.T) {
	e, f := newFTL(t)
	ps := f.PageSize()
	data := bytes.Repeat([]byte("abcdefgh"), ps/4) // 2 pages
	var seen int
	e.Spawn("io", func(p *sim.Proc) {
		f.WriteRange(p, 0, data)
		f.ReadRangeThrough(p, 0, len(data), sim.Microsecond, func(off int64, b []byte) {
			seen += len(b)
			if !bytes.Equal(b, data[off:off+int64(len(b))]) {
				t.Error("streamed chunk mismatch")
			}
		})
	})
	e.Run()
	if seen != len(data) {
		t.Fatalf("streamed %d bytes, want %d", seen, len(data))
	}
}

func TestWriteRangeRandomOffsetsProperty(t *testing.T) {
	f64 := func(seed int64) bool {
		e := sim.NewEnv()
		arr := nand.New(e, smallNAND())
		f := New(e, arr, DefaultConfig())
		rng := rand.New(rand.NewSource(seed))
		shadow := make([]byte, 6*f.PageSize())
		ok := true
		e.Spawn("io", func(p *sim.Proc) {
			for i := 0; i < 12; i++ {
				off := rng.Intn(len(shadow) - 1)
				n := rng.Intn(len(shadow)-off) + 1
				chunk := make([]byte, n)
				rng.Read(chunk)
				copy(shadow[off:], chunk)
				f.WriteRange(p, int64(off), chunk)
			}
			got, _ := f.ReadRange(p, 0, len(shadow))
			ok = bytes.Equal(got, shadow)
		})
		e.Run()
		return ok
	}
	if err := quick.Check(f64, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestInternalBandwidthExceedsHostLink(t *testing.T) {
	// Read enough pages in parallel to saturate all channels; achieved
	// bandwidth must exceed the 3.2 GB/s host link by a wide margin,
	// matching Fig. 7's internal-vs-external gap.
	e := sim.NewEnv()
	cfg := nand.DefaultConfig()
	arr := nand.New(e, cfg)
	f := New(e, arr, DefaultConfig())
	const total = 64 << 20 // 64 MiB
	var elapsed sim.Time
	e.Spawn("io", func(p *sim.Proc) {
		buf := make([]byte, total)
		f.WriteRange(p, 0, buf)
		start := p.Now()
		f.ReadRange(p, 0, total)
		elapsed = p.Now() - start
	})
	e.Run()
	bw := float64(total) / elapsed.Seconds()
	if bw < 3.2e9*1.25 {
		t.Fatalf("internal read bandwidth %.2f GB/s, want > 4 GB/s", bw/1e9)
	}
	t.Logf("internal bandwidth %.2f GB/s", bw/1e9)
}

func TestZeroConfigIsDefault(t *testing.T) {
	// Config's zero value is the default configuration: a caller that
	// never heard of DefaultConfig gets the same device.
	e := sim.NewEnv()
	zero := New(e, nand.New(e, smallNAND()), Config{})
	def := New(e, nand.New(e, smallNAND()), DefaultConfig())
	if zero.NumPages() != def.NumPages() || zero.StripeWidth() != def.StripeWidth() {
		t.Fatalf("Config{} gives %d pages / W=%d, DefaultConfig() %d pages / W=%d",
			zero.NumPages(), zero.StripeWidth(), def.NumPages(), def.StripeWidth())
	}
	if def.StripeWidth() != smallNAND().Channels-1 {
		t.Fatalf("default stripe width %d, want Channels-1", def.StripeWidth())
	}
}
