package ftl

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"biscuit/internal/fault"
	"biscuit/internal/sim"
)

// readOutcome is everything a logical read can be told apart by: the
// bytes, the error, when it ended, and what it cost the FTL.
type readOutcome struct {
	data                   []byte
	err                    error
	end                    sim.Time
	reads, retries, degrad int64
}

// TestReadIntoMatchesRead is the into-form read law: ReadRangeAsyncInto,
// which lands every page's bytes straight in the caller's buffer, and
// the allocating Read see the same bytes, the same error, the same sim
// end time and the same read, retry and degraded-read counts on every
// rung of the read ladder. A failed read leaves the caller's buffer as
// it was.
func TestReadIntoMatchesRead(t *testing.T) {
	const lpn, off, n = 5, 100, 3000 // a window inside the page
	page := func(f *FTL) []byte { return bytes.Repeat([]byte{0x5A}, f.PageSize()) }
	write := func(t *testing.T, p *sim.Proc, f *FTL) {
		if err := f.Write(p, lpn, 0, page(f)); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name  string
		plan  fault.Plan
		setup func(t *testing.T, p *sim.Proc, f *FTL, inj *fault.Injector)
		check func(o readOutcome) bool // the case exercised what it names
	}{
		{"mapped", fault.Plan{Seed: 40}, func(t *testing.T, p *sim.Proc, f *FTL, _ *fault.Injector) { write(t, p, f) },
			func(o readOutcome) bool { return o.err == nil && o.retries == 0 && o.degrad == 0 }},
		{"unmapped", fault.Plan{Seed: 41, UncorrectableProb: 1}, func(*testing.T, *sim.Proc, *FTL, *fault.Injector) {},
			func(o readOutcome) bool { return o.err == nil && bytes.Equal(o.data, make([]byte, n)) }},
		{"correctable", fault.Plan{Seed: 42, CorrectableProb: 1, CorrectableLatency: 30 * sim.Microsecond},
			func(t *testing.T, p *sim.Proc, f *FTL, _ *fault.Injector) { write(t, p, f) },
			func(o readOutcome) bool { return o.err == nil && o.retries == 0 }},
		{"retried", fault.Plan{Seed: 1, UncorrectableProb: 1, MaxFaults: 1},
			func(t *testing.T, p *sim.Proc, f *FTL, _ *fault.Injector) { write(t, p, f) },
			func(o readOutcome) bool { return o.err == nil && o.retries == 1 && o.degrad == 0 }},
		{"reconstructed", fault.Plan{Seed: 22}, func(t *testing.T, p *sim.Proc, f *FTL, inj *fault.Injector) {
			fillPattern(t, f, p, 64)
			die, _, _ := f.decode(f.l2pAt(lpn))
			inj.FailDie(die)
		}, func(o readOutcome) bool { return o.err == nil && o.degrad == 1 }},
		{"lost", fault.Plan{Seed: 43}, func(t *testing.T, p *sim.Proc, f *FTL, _ *fault.Injector) {
			write(t, p, f)
			// What GC does to a page beyond parity's reach.
			f.Trim(lpn)
			f.lost[lpn] = true
		}, func(o readOutcome) bool { return errors.Is(o.err, fault.ErrUncorrectable) && o.reads == 1 }},
		{"unrecoverable", fault.Plan{Seed: 24, UncorrectableProb: 1}, func(t *testing.T, p *sim.Proc, f *FTL, _ *fault.Injector) {
			write(t, p, f)
			f.SealStripe(p)
		}, func(o readOutcome) bool {
			return errors.Is(o.err, fault.ErrUncorrectable) && o.retries > 0 && o.degrad == 0
		}},
	}
	for _, c := range cases {
		run := func(into bool) readOutcome {
			e, f, inj := newFaultyFTL(t, c.plan)
			var o readOutcome
			e.Spawn("io", func(p *sim.Proc) {
				c.setup(t, p, f, inj)
				reads0, _ := f.IOStats()
				retries0, _, _, _ := f.FaultStats()
				degrad0 := f.Rain().DegradedReads
				if into {
					buf := bytes.Repeat([]byte{0xEE}, n)
					o.err = f.ReadRangeAsyncInto(p, int64(lpn*f.PageSize()+off), buf).Wait(p)
					if o.err == nil {
						o.data = buf
					} else if !bytes.Equal(buf, bytes.Repeat([]byte{0xEE}, n)) {
						t.Errorf("%s: a failed read wrote into the caller's buffer", c.name)
					}
				} else {
					o.data, o.err = f.Read(p, lpn, off, n)
				}
				o.end = p.Now()
				reads, _ := f.IOStats()
				retries, _, _, _ := f.FaultStats()
				o.reads, o.retries, o.degrad = reads-reads0, retries-retries0, f.Rain().DegradedReads-degrad0
			})
			e.Run()
			return o
		}
		want, got := run(false), run(true)
		if !c.check(want) {
			t.Fatalf("%s: the allocating read did not take the path the case names: %+v", c.name, want)
		}
		if !bytes.Equal(got.data, want.data) || (got.err == nil) != (want.err == nil) ||
			(got.err != nil && got.err.Error() != want.err.Error()) {
			t.Fatalf("%s: into-form read gave %d bytes, err %v; Read gave %d bytes, err %v",
				c.name, len(got.data), got.err, len(want.data), want.err)
		}
		if got.end != want.end || got.reads != want.reads || got.retries != want.retries || got.degrad != want.degrad {
			t.Fatalf("%s: into-form read ended at %v with %d reads, %d retries, %d degraded; Read at %v with %d, %d, %d",
				c.name, got.end, got.reads, got.retries, got.degrad, want.end, want.reads, want.retries, want.degrad)
		}
	}
}

// TestReadIntoAllocation: a range read into the caller's buffer copies
// each page once, media to buffer, and allocates only per-command
// bookkeeping — far below one page per page read.
func TestReadIntoAllocation(t *testing.T) {
	const pages = 64
	e, f := newFTL(t)
	var alloc uint64
	e.Spawn("io", func(p *sim.Proc) {
		ps := f.PageSize()
		buf := make([]byte, pages*ps)
		if err := f.WriteRange(p, 0, buf); err != nil {
			t.Fatal(err)
		}
		read := func() {
			if err := f.ReadRangeAsyncInto(p, 0, buf).Wait(p); err != nil {
				t.Fatal(err)
			}
		}
		read() // warm the proc pool
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		read()
		runtime.ReadMemStats(&after)
		alloc = after.TotalAlloc - before.TotalAlloc
	})
	e.Run()
	bound := uint64(pages * f.PageSize() / 8)
	t.Logf("%d bytes allocated reading %d pages (bound %d)", alloc, pages, bound)
	if alloc >= bound {
		t.Fatalf("%d bytes allocated reading %d pages into a caller buffer, want < %d", alloc, pages, bound)
	}
}
