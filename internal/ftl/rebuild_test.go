package ftl

import (
	"bytes"
	"fmt"
	"testing"

	"biscuit/internal/fault"
	"biscuit/internal/nand"
	"biscuit/internal/sim"
)

func TestRebuildDrainsDeadDie(t *testing.T) {
	// After a die failure the walker must re-stripe every live page off
	// the dead die; once it drains, host reads are clean again — no
	// page pays reconstruct-on-read anymore.
	e, f, inj := newFaultyFTL(t, fault.Plan{Seed: 31})
	pages := 96
	e.Spawn("io", func(p *sim.Proc) {
		data := fillPattern(t, f, p, pages)
		inj.FailDie(0)
		f.RebuildDie(0)
		if f.RebuildPending() == 0 {
			t.Fatal("queued die reports no pending work")
		}
		for steps := 0; f.RebuildStep(p); steps++ {
			if steps > 10000 {
				t.Fatal("rebuild did not converge")
			}
		}
		if f.RebuildPending() != 0 {
			t.Fatalf("drained walker still reports %d pending", f.RebuildPending())
		}
		before := f.Rain().DegradedReads
		ps := f.PageSize()
		for lpn := 0; lpn < pages; lpn++ {
			got, err := f.Read(p, lpn, 0, ps)
			if err != nil {
				t.Fatalf("lpn %d unreadable after rebuild: %v", lpn, err)
			}
			if !bytes.Equal(got, data[lpn*ps:(lpn+1)*ps]) {
				t.Fatalf("lpn %d content wrong after rebuild", lpn)
			}
		}
		if d := f.Rain().DegradedReads - before; d != 0 {
			t.Fatalf("%d reads still degraded after the die drained", d)
		}
	})
	e.Run()
	rs := f.Rebuild()
	if rs.Dies != 1 {
		t.Fatalf("want 1 die drained, got %+v", rs)
	}
	if rs.Pages == 0 {
		t.Fatalf("no data pages re-striped: %+v", rs)
	}
	// Conservation: every page of every drained die is accounted exactly
	// once, whichever arm of the walker (or the scrub) got to it.
	nc := f.arr.Config()
	if total, want := rs.Pages+rs.Parity+rs.Skips+rs.Fails, int64(nc.BlocksPerDie*nc.PagesPerBlock)*rs.Dies; total != want {
		t.Fatalf("walker accounted %d units for %d pages on %d drained dies: %+v", total, want, rs.Dies, rs)
	}
}

func TestRebuildDieEnqueueIdempotent(t *testing.T) {
	e, f, _ := newFaultyFTL(t, fault.Plan{Seed: 31})
	e.Spawn("io", func(p *sim.Proc) {
		fillPattern(t, f, p, 16)
		f.RebuildDie(2)
		per := f.RebuildPending()
		f.RebuildDie(2)  // repeat health probes must not re-queue
		f.RebuildDie(-1) // out of range: ignored
		f.RebuildDie(99)
		if f.RebuildPending() != per {
			t.Fatalf("pending grew from %d to %d on duplicate enqueue", per, f.RebuildPending())
		}
	})
	e.Run()
}

// scrubRaceRun interleaves the patrol scrub with the rebuild walker
// over the same dead die and returns a transcript of everything
// observable: content hash, RAIN and rebuild counters, and the clock.
func scrubRaceRun(t *testing.T, seed int64) string {
	t.Helper()
	e := sim.NewEnv()
	arr := nand.New(e, smallNAND())
	inj, err := fault.NewInjector(e, fault.Plan{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	arr.SetInjector(inj)
	f := New(e, arr, DefaultConfig())
	pages := 96
	var sum int
	e.Spawn("io", func(p *sim.Proc) {
		data := fillPattern(t, f, p, pages)
		inj.FailDie(0)
		f.RebuildDie(0)
		// Interleave: scrub repairs dead-die members stripe by stripe
		// while the walker drains the die page by page. The (lpns, l2p)
		// and (pointer, seq) re-check guards make every unit idempotent,
		// so whichever side gets to a page first wins and the other
		// observes it already moved.
		for steps := 0; f.RebuildStep(p); steps++ {
			f.ScrubStep(p)
			if steps > 10000 {
				t.Fatal("race did not converge")
			}
		}
		ps := f.PageSize()
		before := f.Rain().DegradedReads
		for lpn := 0; lpn < pages; lpn++ {
			got, err := f.Read(p, lpn, 0, ps)
			if err != nil {
				t.Fatalf("lpn %d unreadable after scrub+rebuild: %v", lpn, err)
			}
			if !bytes.Equal(got, data[lpn*ps:(lpn+1)*ps]) {
				t.Fatalf("lpn %d content wrong after scrub+rebuild", lpn)
			}
			sum = sum*31 + int(got[0])
		}
		if d := f.Rain().DegradedReads - before; d != 0 {
			t.Fatalf("%d reads still degraded after scrub+rebuild converged", d)
		}
	})
	e.Run()
	return fmt.Sprintf("content=%x rain=%+v rebuild=%+v now=%d", sum, f.Rain(), f.Rebuild(), e.Now())
}

func TestScrubRacesRebuildWithoutDoubleRepair(t *testing.T) {
	// Patrol scrub and the rebuild walker race over the same dead die.
	// Convergence: all data reads back clean. No double-repair: the
	// walker accounts each of the die's pages exactly once — a page the
	// scrub repaired first shows up as a stale-mark skip, never as a
	// second media move. Determinism: the full counter transcript is
	// identical across same-seed runs.
	a := scrubRaceRun(t, 41)
	if b := scrubRaceRun(t, 41); a != b {
		t.Fatalf("same-seed race transcripts diverged:\n%s\n%s", a, b)
	}
	// Re-derive the counters once more for the structural assertions.
	e := sim.NewEnv()
	arr := nand.New(e, smallNAND())
	inj, err := fault.NewInjector(e, fault.Plan{Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	arr.SetInjector(inj)
	f := New(e, arr, DefaultConfig())
	e.Spawn("io", func(p *sim.Proc) {
		fillPattern(t, f, p, 96)
		inj.FailDie(0)
		f.RebuildDie(0)
		for f.RebuildStep(p) {
			f.ScrubStep(p)
		}
	})
	e.Run()
	rs, rain := f.Rebuild(), f.Rain()
	// Conservation: every page of every drained die is accounted exactly
	// once, whichever arm of the walker (or the scrub) got to it.
	nc := f.arr.Config()
	if total, want := rs.Pages+rs.Parity+rs.Skips+rs.Fails, int64(nc.BlocksPerDie*nc.PagesPerBlock)*rs.Dies; total != want {
		t.Fatalf("walker accounted %d units for %d pages on %d drained dies: %+v", total, want, rs.Dies, rs)
	}
	if rs.Fails != 0 {
		t.Fatalf("no unit should be beyond parity's reach here: %+v", rs)
	}
	if rs.Pages+rs.Parity == 0 {
		t.Fatalf("rebuild did no media work — the race never happened: %+v", rs)
	}
	if rain.ScrubRepairs+rain.ScrubParityFixes == 0 {
		t.Fatalf("scrub did no media work — the race never happened: %+v", rain)
	}
}

func TestUnstripedMissIsNotAReconstructFail(t *testing.T) {
	// A page RAIN never covered (single-die geometry: no stripes at
	// all) that becomes unreadable is a benign miss, counted apart from
	// real protection failures so the health monitor does not escalate.
	e, f, inj := newFaultyFTLOn(t, tinyNAND(), fault.Plan{Seed: 33})
	e.Spawn("io", func(p *sim.Proc) {
		data := bytes.Repeat([]byte{0x3C}, f.PageSize())
		if err := f.Write(p, 0, 0, data); err != nil {
			t.Fatal(err)
		}
		inj.FailDie(0)
		if _, err := f.Read(p, 0, 0, f.PageSize()); err == nil {
			t.Fatal("read of an unstriped page on a dead die must fail")
		}
	})
	e.Run()
	rs := f.Rain()
	if rs.ReconstructUnstriped == 0 {
		t.Fatalf("unstriped miss not counted: %+v", rs)
	}
	if rs.ReconstructFails != 0 {
		t.Fatalf("benign unstriped miss counted as a protection failure: %+v", rs)
	}
}
