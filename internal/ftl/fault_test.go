package ftl

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"biscuit/internal/fault"
	"biscuit/internal/nand"
	"biscuit/internal/sim"
)

// newFaultyFTL builds an FTL whose NAND array rolls the given fault plan.
func newFaultyFTL(t *testing.T, plan fault.Plan) (*sim.Env, *FTL, *fault.Injector) {
	return newFaultyFTLOn(t, smallNAND(), plan)
}

// tinyNAND is a single-die geometry small enough that a few dozen page
// writes push the FTL through garbage collection.
func tinyNAND() nand.Config {
	cfg := smallNAND()
	cfg.Channels = 1
	cfg.WaysPerChannel = 1
	cfg.BlocksPerDie = 16
	return cfg
}

func newFaultyFTLOn(t *testing.T, ncfg nand.Config, plan fault.Plan) (*sim.Env, *FTL, *fault.Injector) {
	t.Helper()
	e := sim.NewEnv()
	arr := nand.New(e, ncfg)
	inj, err := fault.NewInjector(e, plan)
	if err != nil {
		t.Fatal(err)
	}
	arr.SetInjector(inj)
	return e, New(e, arr, DefaultConfig()), inj
}

func TestReadRetryRecoversTransientUncorrectable(t *testing.T) {
	// One guaranteed uncorrectable error, then quiet: the first media
	// read fails, the retry succeeds, the caller never sees an error.
	e, f, inj := newFaultyFTL(t, fault.Plan{Seed: 1, UncorrectableProb: 1, MaxFaults: 1})
	want := bytes.Repeat([]byte{0x5A}, 4096)
	e.Spawn("io", func(p *sim.Proc) {
		if err := f.Write(p, 3, 0, want); err != nil {
			t.Fatal(err)
		}
		before := p.Now()
		got, err := f.Read(p, 3, 0, 4096)
		if err != nil {
			t.Fatalf("retry should have recovered the read: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Error("retried read returned wrong data")
		}
		if p.Now()-before < retryLatency {
			t.Error("retry must cost at least retryLatency")
		}
	})
	e.Run()
	retries, errs, _, _ := f.FaultStats()
	if retries != 1 || errs != 0 {
		t.Fatalf("readRetries=%d readErrors=%d, want 1,0", retries, errs)
	}
	if inj.Count(fault.ReadUncorrectable) != 1 {
		t.Fatalf("injected %d uncorrectables, want 1", inj.Count(fault.ReadUncorrectable))
	}
}

func TestReadErrorSurfacesAfterRetriesExhausted(t *testing.T) {
	// The stripe is sealed before the read so the full ladder runs: the
	// member read exhausts its retries, reconstruction reads the parity
	// page (which fails the same way), and only then does the error
	// surface. An unsealed page would be served from the open stripe's
	// RAM accumulator instead — see TestReadErrorRecoversFromOpenStripe.
	e, f, _ := newFaultyFTL(t, fault.Plan{Seed: 2, UncorrectableProb: 1})
	e.Spawn("io", func(p *sim.Proc) {
		if err := f.Write(p, 0, 0, []byte{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		f.SealStripe(p)
		_, err := f.Read(p, 0, 0, 4096)
		if !errors.Is(err, fault.ErrUncorrectable) {
			t.Fatalf("want wrapped ErrUncorrectable, got %v", err)
		}
	})
	e.Run()
	retries, errs, _, _ := f.FaultStats()
	if retries != 2*maxReadRetries || errs != 2 {
		t.Fatalf("readRetries=%d readErrors=%d, want %d,2 (member + parity)",
			retries, errs, 2*maxReadRetries)
	}
	if rs := f.Rain(); rs.ReconstructFails != 1 {
		t.Fatalf("ReconstructFails=%d, want 1", rs.ReconstructFails)
	}
}

func TestReadErrorRecoversFromOpenStripe(t *testing.T) {
	// A page whose stripe has not sealed is still covered: the
	// controller holds the open stripe's running XOR in RAM, so even
	// with every media read failing, the single-member accumulator
	// rebuilds the page without touching the array.
	e, f, _ := newFaultyFTL(t, fault.Plan{Seed: 2, UncorrectableProb: 1})
	e.Spawn("io", func(p *sim.Proc) {
		if err := f.Write(p, 0, 0, []byte{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		got, err := f.Read(p, 0, 0, 4)
		if err != nil {
			t.Fatalf("open-stripe read must recover: %v", err)
		}
		if !bytes.Equal(got, []byte{1, 2, 3, 0}) {
			t.Fatalf("reconstructed %v, want [1 2 3 0]", got)
		}
	})
	e.Run()
	if rs := f.Rain(); rs.Reconstructs != 1 || rs.DegradedReads != 1 {
		t.Fatalf("Reconstructs=%d DegradedReads=%d, want 1,1", rs.Reconstructs, rs.DegradedReads)
	}
}

func TestUnmappedReadNeverConsultsMedia(t *testing.T) {
	// Unmapped logical pages are synthesized by the FTL; even a
	// fault-saturated array cannot fail them.
	e, f, _ := newFaultyFTL(t, fault.Plan{Seed: 3, UncorrectableProb: 1})
	e.Spawn("io", func(p *sim.Proc) {
		got, err := f.Read(p, 7, 0, 64)
		if err != nil {
			t.Fatalf("unmapped read failed: %v", err)
		}
		for _, b := range got {
			if b != 0 {
				t.Fatal("unmapped page must read zero")
			}
		}
	})
	e.Run()
}

func TestProgramFailureRetiresBlockAndRemaps(t *testing.T) {
	e, f, _ := newFaultyFTL(t, fault.Plan{Seed: 4, ProgramFailProb: 1, MaxFaults: 1})
	want := bytes.Repeat([]byte{0xC3}, 4096)
	e.Spawn("io", func(p *sim.Proc) {
		if err := f.Write(p, 9, 0, want); err != nil {
			t.Fatalf("remap should have absorbed the program failure: %v", err)
		}
		got, err := f.Read(p, 9, 0, 4096)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read after remap: err=%v match=%v", err, bytes.Equal(got, want))
		}
	})
	e.Run()
	_, _, pf, _ := f.FaultStats()
	if pf != 1 {
		t.Fatalf("programFails=%d, want 1", pf)
	}
	if f.BadBlocks() != 1 {
		t.Fatalf("badBlocks=%d, want 1", f.BadBlocks())
	}
}

func TestProgramFailureExhaustionSurfaces(t *testing.T) {
	e, f, _ := newFaultyFTL(t, fault.Plan{Seed: 5, ProgramFailProb: 1})
	e.Spawn("io", func(p *sim.Proc) {
		err := f.Write(p, 0, 0, []byte{9})
		if !errors.Is(err, fault.ErrProgramFail) {
			t.Fatalf("want wrapped ErrProgramFail, got %v", err)
		}
		if !strings.Contains(err.Error(), "program attempts failed") {
			t.Fatalf("unhelpful error: %v", err)
		}
	})
	e.Run()
	if f.BadBlocks() != maxProgramRetries {
		t.Fatalf("badBlocks=%d, want one per attempt (%d)", f.BadBlocks(), maxProgramRetries)
	}
}

func TestRetiredBlockStaysOffFreeList(t *testing.T) {
	// After a program failure retires a block, continued write traffic —
	// including GC — must never reopen it.
	e, f, _ := newFaultyFTL(t, fault.Plan{Seed: 6, ProgramFailProb: 1, MaxFaults: 1})
	ps := f.PageSize()
	shadow := make([]byte, 24*ps)
	for i := range shadow {
		shadow[i] = byte(i * 7)
	}
	e.Spawn("io", func(p *sim.Proc) {
		// Write and rewrite to push every die through allocation and GC.
		for round := 0; round < 4; round++ {
			if err := f.WriteRange(p, 0, shadow); err != nil {
				t.Fatal(err)
			}
		}
		got, err := f.ReadRange(p, 0, len(shadow))
		if err != nil || !bytes.Equal(got, shadow) {
			t.Fatalf("data lost after retirement: err=%v match=%v", err, bytes.Equal(got, shadow))
		}
	})
	e.Run()
	if f.BadBlocks() != 1 {
		t.Fatalf("badBlocks=%d, want 1", f.BadBlocks())
	}
	// The retired block must not be on any free list or open frontier.
	bad := 0
	for dieIdx, d := range f.dies {
		for b := range d.blockMeta {
			if !d.blockMeta[b].bad {
				continue
			}
			bad++
			if f.isFree(d, b) {
				t.Fatalf("retired block %d/%d back on the free list", dieIdx, b)
			}
			if d.isOpen(b) {
				t.Fatalf("retired block %d/%d reopened as frontier", dieIdx, b)
			}
		}
	}
	if bad != 1 {
		t.Fatalf("found %d bad blocks in metadata, want 1", bad)
	}
}

func TestEraseFailureUnderGCRetiresVictim(t *testing.T) {
	e, f, _ := newFaultyFTLOn(t, tinyNAND(), fault.Plan{Seed: 7, EraseFailProb: 1, MaxFaults: 2})
	ps := f.PageSize()
	shadow := make([]byte, 24*ps)
	for i := range shadow {
		shadow[i] = byte(i * 13)
	}
	e.Spawn("io", func(p *sim.Proc) {
		// Overwrite repeatedly so GC runs and tries to erase victims.
		for round := 0; round < 6; round++ {
			for i := range shadow {
				shadow[i] = byte(i*13 + round)
			}
			if err := f.WriteRange(p, 0, shadow); err != nil {
				t.Fatal(err)
			}
		}
		got, err := f.ReadRange(p, 0, len(shadow))
		if err != nil || !bytes.Equal(got, shadow) {
			t.Fatalf("data lost after erase failures: err=%v match=%v", err, bytes.Equal(got, shadow))
		}
	})
	e.Run()
	if f.BadBlocks() == 0 {
		t.Fatal("erase failures under GC must retire blocks")
	}
	rounds, _ := f.GCStats()
	if rounds == 0 {
		t.Fatal("workload never triggered GC; test exercised nothing")
	}
}

func TestGCRelocationRecoversLatentPage(t *testing.T) {
	// Silent corruption plants latent sector errors at program time: the
	// page reads back uncorrectable forever after, though the media bytes
	// are intact. GC relocation reads that hit latent pages must rebuild
	// the contents from RAIN parity — the surrogate recovery path is
	// gone, stripes are the only way back. The churn runs at ~70 %
	// logical occupancy so superblock victims always carry live pages
	// (some latently damaged) through relocation.
	e, f, inj := newFaultyFTL(t, fault.Plan{Seed: 4, SilentProb: 0.02})
	ps := f.PageSize()
	pages := f.NumPages() * 7 / 10
	shadow := make([]byte, pages*ps)
	for i := range shadow {
		shadow[i] = byte(i * 31)
	}
	rng := rand.New(rand.NewSource(12))
	e.Spawn("io", func(p *sim.Proc) {
		if err := f.WriteRange(p, 0, shadow); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 8; round++ {
			for i := 0; i < 120; i++ {
				lpn := rng.Intn(pages)
				chunk := shadow[lpn*ps : (lpn+1)*ps]
				for j := range chunk {
					chunk[j] = byte(j + lpn + round)
				}
				if err := f.Write(p, lpn, 0, chunk); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Close the trailing partial stripes so every page is covered.
		f.SealStripe(p)
		// All contents must read back exactly — latently damaged pages
		// through degraded-mode reconstruction.
		for lpn := 0; lpn < pages; lpn++ {
			if !f.Mapped(lpn) {
				t.Fatalf("lpn %d lost its mapping", lpn)
			}
			got, err := f.Read(p, lpn, 0, ps)
			if err != nil {
				t.Fatalf("lpn %d unreadable after GC under latent errors: %v", lpn, err)
			}
			if !bytes.Equal(got, shadow[lpn*ps:(lpn+1)*ps]) {
				t.Fatalf("lpn %d content lost during GC recovery", lpn)
			}
		}
	})
	e.Run()
	rounds, moves := f.GCStats()
	if rounds == 0 || moves == 0 {
		t.Fatal("workload never triggered GC relocation")
	}
	if inj.Count(fault.SilentCorrupt) == 0 {
		t.Fatal("plan injected no silent corruption; test exercised nothing")
	}
	_, _, _, recovers := f.FaultStats()
	if recovers == 0 {
		t.Fatal("no GC relocation went through parity reconstruction")
	}
	if inj.Count(fault.GCRecover) != recovers {
		t.Fatalf("injector log has %d gc-recover events, FTL counted %d",
			inj.Count(fault.GCRecover), recovers)
	}
	rs := f.Rain()
	if rs.Reconstructs < recovers {
		t.Fatalf("reconstructs=%d < gcRecovers=%d: recovery bypassed RAIN", rs.Reconstructs, recovers)
	}
	if rs.LostPages != 0 {
		t.Fatalf("%d pages poisoned: corruption rate overwhelmed single parity", rs.LostPages)
	}
	t.Logf("rounds=%d moves=%d recovers=%d reconstructs=%d", rounds, moves, recovers, rs.Reconstructs)
}

func TestFaultFTLDeterminism(t *testing.T) {
	// Same plan, same workload → identical stats and fault schedules.
	run := func() (string, [4]int64, int64) {
		e, f, inj := newFaultyFTL(t, fault.DefaultPlan(99))
		ps := f.PageSize()
		data := make([]byte, 32*ps)
		for i := range data {
			data[i] = byte(i)
		}
		e.Spawn("io", func(p *sim.Proc) {
			for round := 0; round < 4; round++ {
				if err := f.WriteRange(p, 0, data); err != nil {
					t.Fatal(err)
				}
				if _, err := f.ReadRange(p, 0, len(data)); err != nil {
					t.Fatal(err)
				}
			}
		})
		e.Run()
		rr, re, pf, gr := f.FaultStats()
		return inj.Signature(), [4]int64{rr, re, pf, gr}, f.BadBlocks()
	}
	sig1, st1, bb1 := run()
	sig2, st2, bb2 := run()
	if sig1 != sig2 || st1 != st2 || bb1 != bb2 {
		t.Fatalf("same-seed runs diverged: sig %v stats %v/%v bad %d/%d",
			sig1 == sig2, st1, st2, bb1, bb2)
	}
}
