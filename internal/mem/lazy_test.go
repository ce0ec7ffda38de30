package mem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"testing"
)

// lawArenaSize is the capacity of both arenas a script drives: small
// enough that scripts reach out-of-memory and whole-arena requests,
// large enough that the lazy arena grows several times.
const lawArenaSize = 1 << 16

// checkLazyEqualsEager runs script on a lazy arena and on one
// materialized in full at birth. Every three bytes are one step: an
// Alloc (small or up to past the capacity), a Free, or a write of a
// fill byte into a live block. After each step both arenas must give
// the same offsets, errors, Allocated, Peak and FreeBytes, pass
// CheckInvariants, and hold the same bytes in every live block's
// window, fetched again after each Alloc; and a window must still
// hold what was last written to it, across any growth since.
func checkLazyEqualsEager(t testing.TB, script []byte) {
	t.Helper()
	lazy, errL := NewArena("law", "", lawArenaSize)
	eager, errE := newEagerArena("law", "", lawArenaSize)
	if errL != nil || errE != nil {
		t.Fatal(errL, errE)
	}
	type live struct {
		lazy, eager Block
		fill        []byte // what the window must hold
	}
	var blocks []live
	window := func(b Block) []byte {
		buf, err := b.Bytes("")
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	for i := 0; i+3 <= len(script); i += 3 {
		op, arg := script[i], int(binary.LittleEndian.Uint16(script[i+1:]))
		switch op % 4 {
		case 0, 1:
			n := 1 + arg%512
			if op%4 == 1 {
				n = 1 + arg%(lawArenaSize+64)
			}
			bl, errL := lazy.Alloc(n)
			be, errE := eager.Alloc(n)
			if bl.off != be.off || (errL == nil) != (errE == nil) || (errL != nil && errL.Error() != errE.Error()) {
				t.Fatalf("step %d: Alloc(%d) = %d, %v lazy; %d, %v eager", i/3, n, bl.off, errL, be.off, errE)
			}
			if errL != nil {
				if !errors.Is(errL, ErrOutOfMemory) && !errors.Is(errL, ErrSizeTooLarge) {
					t.Fatalf("step %d: Alloc(%d): %v", i/3, n, errL)
				}
				break
			}
			// The fresh window holds whatever the arena held there,
			// and both arenas held the same.
			wl, we := window(bl), window(be)
			if !bytes.Equal(wl, we) {
				t.Fatalf("step %d: fresh window at %d differs", i/3, bl.off)
			}
			fill := bytes.Repeat([]byte{byte(i / 3)}, n)
			copy(wl, fill)
			copy(we, fill)
			blocks = append(blocks, live{bl, be, fill})
		case 2:
			if len(blocks) == 0 {
				break
			}
			k := arg % len(blocks)
			errL, errE := lazy.Free(blocks[k].lazy), eager.Free(blocks[k].eager)
			if errL != nil || errE != nil {
				t.Fatalf("step %d: Free = %v lazy, %v eager", i/3, errL, errE)
			}
			blocks = append(blocks[:k], blocks[k+1:]...)
		case 3:
			if len(blocks) == 0 {
				break
			}
			b := &blocks[arg%len(blocks)]
			from := (arg >> 4) % len(b.fill)
			for j := from; j < len(b.fill); j++ {
				b.fill[j] = op
			}
			copy(window(b.lazy)[from:], b.fill[from:])
			copy(window(b.eager)[from:], b.fill[from:])
		}
		if errL, errE := lazy.CheckInvariants(), eager.CheckInvariants(); errL != nil || errE != nil {
			t.Fatalf("step %d: CheckInvariants = %v lazy, %v eager", i/3, errL, errE)
		}
		if lazy.Allocated() != eager.Allocated() || lazy.Peak() != eager.Peak() || lazy.FreeBytes() != eager.FreeBytes() {
			t.Fatalf("step %d: allocated %d/%d, peak %d/%d, free %d/%d (lazy/eager)", i/3,
				lazy.Allocated(), eager.Allocated(), lazy.Peak(), eager.Peak(), lazy.FreeBytes(), eager.FreeBytes())
		}
		for _, b := range blocks {
			if !bytes.Equal(window(b.lazy), b.fill) || !bytes.Equal(window(b.eager), b.fill) {
				t.Fatalf("step %d: block at %d lost its bytes", i/3, b.lazy.off)
			}
		}
	}
}

func TestLazyArenaEqualsEager(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		script := make([]byte, 3*400)
		rand.New(rand.NewSource(seed)).Read(script)
		checkLazyEqualsEager(t, script)
	}
}

// TestWindowSurvivesGrowth: a window fetched again after an Alloc
// that grew the arena holds what was written before the growth.
func TestWindowSurvivesGrowth(t *testing.T) {
	a := mustArena(t, 1<<20)
	b1, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	buf, _ := b1.Bytes("")
	copy(buf, "written before the arena grew")
	before := a.Materialized()
	if _, err := a.Alloc(64 << 10); err != nil {
		t.Fatal(err)
	}
	if a.Materialized() <= before {
		t.Fatalf("materialized %d bytes after a 64 KiB Alloc, want more than %d", a.Materialized(), before)
	}
	buf, _ = b1.Bytes("")
	if got := string(buf[:29]); got != "written before the arena grew" {
		t.Fatalf("window after growth holds %q", got)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func FuzzArenaOps(f *testing.F) {
	f.Add([]byte{0, 10, 0, 1, 0, 200, 3, 0, 0, 2, 0, 0})
	f.Add([]byte{1, 255, 255, 1, 0, 128, 0, 1, 0, 2, 1, 0, 1, 0, 64})
	f.Fuzz(func(t *testing.T, script []byte) { checkLazyEqualsEager(t, script) })
}

// TestNewDeviceMemoryAllocatesLittle: a drive's heaps cost the host
// what they hand out, not their modeled 72 MiB.
func TestNewDeviceMemoryAllocatesLittle(t *testing.T) {
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := NewDeviceMemory(8<<20, 64<<20); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 4<<10 {
		t.Fatalf("NewDeviceMemory allocates %d B, want under 4 KiB", per)
	}
}

func BenchmarkNewDeviceMemory(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		if _, err := NewDeviceMemory(8<<20, 64<<20); err != nil {
			b.Fatal(err)
		}
	}
}
