package ftl

// Proactive die rebuild: when a die fails, every page it held is either
// live data some stripe can reconstruct, live parity protecting members
// elsewhere, or stale. Without a rebuild the array limps along paying a
// full W-read reconstruction on every future access to the dead die
// (reconstruct-on-read); the walker below instead drains the die in the
// background — one bounded unit of work per step, paced by the device's
// rebuild fiber — re-striping live data onto healthy dies and
// relocating live parity, after which reads are clean again.
//
// The walker reuses the GC relocation primitives (moveData,
// relocateParity), whose (lpns, l2p) and (stripe pointer, seq) re-check
// guards make each unit idempotent: a page the patrol scrub repaired
// first is observed already-moved and skipped, so scrub and rebuild can
// race over the same superblock without double-repair.

import "biscuit/internal/sim"

// RebuildStats is a snapshot of proactive-rebuild activity.
type RebuildStats struct {
	Pages  int64 // live data pages re-striped off dead dies
	Parity int64 // parity pages relocated off dead dies
	Skips  int64 // pages found stale or superseded (no media work)
	Fails  int64 // units that failed (data beyond parity's reach)
	Dies   int64 // dies fully drained
}

// Rebuild reports proactive-rebuild activity.
func (f *FTL) Rebuild() RebuildStats { return f.rebuild }

// RebuildDie queues die for background re-striping. Enqueueing is
// idempotent — a die is walked once no matter how many health probes
// report it — and pure bookkeeping; the device's rebuild fiber drives
// the actual work through RebuildStep.
func (f *FTL) RebuildDie(die int) {
	if f.rebuildSeen[die] || die < 0 || die >= len(f.dies) {
		return
	}
	f.rebuildSeen[die] = true
	f.rebuildQ = append(f.rebuildQ, die)
	f.rebuildGauge()
}

// RebuildPending reports how many dead-die pages the walker has not yet
// examined (0 when idle).
func (f *FTL) RebuildPending() int {
	nc := f.arr.Config()
	per := nc.BlocksPerDie * nc.PagesPerBlock
	left := len(f.rebuildQ) * per
	if f.rebuildCur >= 0 {
		left += per - f.rebuildPos
	}
	return left
}

func (f *FTL) rebuildGauge() {
	if f.gRebuildLeft == nil {
		return
	}
	f.gRebuildLeft.Set(int64(f.RebuildPending()))
	f.gRebuildPages.Set(f.rebuild.Pages)
}

// RebuildStep performs one unit of rebuild work: it advances the
// block-major cursor over the current dead die until it finds a page
// needing media work (a live mapping to re-stripe or a live parity to
// relocate) and handles exactly that page; stale pages in between are
// skipped as free bookkeeping. It reports whether any queued work
// remains — false means the rebuild queue is drained and the fiber can
// idle until the next die failure.
func (f *FTL) RebuildStep(p *sim.Proc) bool {
	nc := f.arr.Config()
	per := nc.BlocksPerDie * nc.PagesPerBlock
	for {
		if f.rebuildCur < 0 {
			if len(f.rebuildQ) == 0 {
				return false
			}
			f.rebuildCur = f.rebuildQ[0]
			f.rebuildQ = f.rebuildQ[1:]
			f.rebuildPos = 0
		}
		die := f.rebuildCur
		for f.rebuildPos < per {
			pos := f.rebuildPos
			f.rebuildPos++
			block, pg := pos/nc.PagesPerBlock, pos%nc.PagesPerBlock
			ppi := f.encode(die, block, pg)
			mark := f.dies[die].blockMeta[block].lpns[pg]
			if mark < 0 && mark != parityMark {
				f.rebuild.Skips++
				continue
			}
			switch {
			case mark >= 0 && f.moveData(p, ppi):
				f.rebuild.Pages++
			case mark == parityMark && f.relocateParity(p, ppi):
				f.rebuild.Parity++
			default:
				f.rebuild.Fails++
			}
			f.rebuildGauge()
			return true
		}
		f.rebuild.Dies++
		f.tr.Instant(f.fwTk, "rebuild.drained").Arg("die", int64(die))
		f.rebuildCur = -1
		f.rebuildPos = 0
		f.rebuildGauge()
	}
}
