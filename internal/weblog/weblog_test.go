package weblog

import (
	"bytes"
	"errors"
	"testing"

	"biscuit"
	"biscuit/internal/match"
	"biscuit/internal/sim"
)

func newSys() *biscuit.System {
	cfg := biscuit.DefaultConfig()
	cfg.NAND.BlocksPerDie = 256
	cfg.NAND.PagesPerBlock = 64
	return biscuit.NewSystem(cfg)
}

func TestConvAndNDPCountsMatchPlanted(t *testing.T) {
	sys := newSys()
	sys.Run(func(h *biscuit.Host) {
		const needle = "XNEEDLEX"
		_, planted, err := Generate(h, 2<<20, needle, 100, biscuit.SeededRand(5))
		if err != nil {
			t.Fatal(err)
		}
		if planted == 0 {
			t.Fatal("no needles planted")
		}
		conv, err := SearchConv(h, needle)
		if err != nil {
			t.Fatal(err)
		}
		ndp, err := SearchNDP(h, needle)
		if err != nil {
			t.Fatal(err)
		}
		if conv != planted || ndp != planted {
			t.Fatalf("planted=%d conv=%d ndp=%d", planted, conv, ndp)
		}
	})
}

func TestNDPSearchFasterAndLoadInsensitive(t *testing.T) {
	sys := newSys()
	var convIdle, convLoaded, ndpIdle, ndpLoaded sim.Time
	sys.Run(func(h *biscuit.Host) {
		const needle = "XNEEDLEX"
		if _, _, err := Generate(h, 8<<20, needle, 500, biscuit.SeededRand(5)); err != nil {
			t.Fatal(err)
		}
		run := func(fn func() (int64, error)) sim.Time {
			start := h.Now()
			if _, err := fn(); err != nil {
				t.Fatal(err)
			}
			return h.Now() - start
		}
		convIdle = run(func() (int64, error) { return SearchConv(h, needle) })
		ndpIdle = run(func() (int64, error) { return SearchNDP(h, needle) })
		h.System().Plat.SetHostLoad(24)
		convLoaded = run(func() (int64, error) { return SearchConv(h, needle) })
		ndpLoaded = run(func() (int64, error) { return SearchNDP(h, needle) })
		h.System().Plat.SetHostLoad(0)
	})
	gainIdle := float64(convIdle) / float64(ndpIdle)
	gainLoaded := float64(convLoaded) / float64(ndpLoaded)
	if gainIdle < 3 {
		t.Fatalf("unloaded search gain %.2f, want >3 (paper: 5.3x)", gainIdle)
	}
	if gainLoaded <= gainIdle {
		t.Fatalf("gain must grow with load: idle %.2f loaded %.2f", gainIdle, gainLoaded)
	}
	if float64(ndpLoaded) > float64(ndpIdle)*1.05 {
		t.Fatalf("Biscuit search must be load-insensitive: %v vs %v", ndpIdle, ndpLoaded)
	}
	t.Logf("conv idle=%v loaded=%v | ndp idle=%v loaded=%v | gain %.1fx -> %.1fx",
		convIdle, convLoaded, ndpIdle, ndpLoaded, gainIdle, gainLoaded)
}

func TestSearchFindsCrossChunkMatches(t *testing.T) {
	// A needle planted across the 1 MiB Conv chunk boundary must still
	// be counted once by both engines.
	sys := newSys()
	sys.Run(func(h *biscuit.Host) {
		f, err := h.SSD().CreateFile(LogFile)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 2<<20)
		for i := range data {
			data[i] = 'x'
		}
		copy(data[(1<<20)-4:], "BOUNDARYKEY")
		if err := f.Write(h.Proc(), 0, data); err != nil {
			t.Fatal(err)
		}
		f.Flush(h.Proc())
		conv, err := SearchConv(h, "BOUNDARYKEY")
		if err != nil {
			t.Fatal(err)
		}
		ndp, err := SearchNDP(h, "BOUNDARYKEY")
		if err != nil {
			t.Fatal(err)
		}
		if conv != 1 || ndp != 1 {
			t.Fatalf("conv=%d ndp=%d, want 1/1", conv, ndp)
		}
	})
}

func TestSearchEmptyNeedleIsAnError(t *testing.T) {
	// Both engines refuse an empty needle with match.ErrEmptyKey; the
	// Conv path used to panic the whole simulation.
	sys := newSys()
	sys.Run(func(h *biscuit.Host) {
		if _, _, err := Generate(h, 64<<10, "", 0, biscuit.SeededRand(5)); err != nil {
			t.Fatal(err)
		}
		if _, err := SearchConv(h, ""); !errors.Is(err, match.ErrEmptyKey) {
			t.Fatalf("SearchConv(\"\"): %v, want %v", err, match.ErrEmptyKey)
		}
		if _, err := SearchNDP(h, ""); !errors.Is(err, match.ErrEmptyKey) {
			t.Fatalf("SearchNDP(\"\"): %v, want %v", err, match.ErrEmptyKey)
		}
	})
}

func TestSearchConvLongNeedle(t *testing.T) {
	// A needle longer than 65 bytes carries more than the old fixed
	// 64-byte slack between chunks; it must still be counted once, on
	// both sides of and across the 1 MiB chunk boundary.
	needle := bytes.Repeat([]byte("LONGKEY-"), 25) // 200 bytes
	data := bytes.Repeat([]byte{'x'}, 3<<20)
	for _, at := range []int{1000, (1 << 20) - 100, (2 << 20) - 1, (3 << 20) - 4000} {
		copy(data[at:], needle)
	}
	want := int64(bytes.Count(data, needle))
	sys := newSys()
	sys.Run(func(h *biscuit.Host) {
		f, err := h.SSD().CreateFile(LogFile)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.SSD().WriteFile(f, 0, data); err != nil {
			t.Fatal(err)
		}
		got, err := SearchConv(h, string(needle))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("conv counts %d, want %d", got, want)
		}
	})
}
