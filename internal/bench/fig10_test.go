package bench

import "testing"

// TestFig10Shape runs the full 22-query suite at a reduced scale factor
// and asserts the structural facts of Fig. 10 and §V-C:
//
//   - a paper-like number of queries offload (the paper has 8);
//   - every offloaded query is at least as fast under Biscuit and moves
//     fewer pages over the host interface;
//   - the largest speed-up belongs to a query whose plan exploits the
//     NDP-first join-order heuristic (Q12/Q14 class);
//   - non-offloaded queries sit at exactly 1.0;
//   - the whole suite finishes severalfold faster under Biscuit.
func TestFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full TPC-H sweep")
	}
	cfg := DefaultConfig()
	cfg.SF = 0.01
	got := RunFig10(cfg)

	if got.OffloadedCount < 6 || got.OffloadedCount > 10 {
		t.Errorf("offloaded=%d, want 6-10 (paper: 8)", got.OffloadedCount)
	}
	maxSpeed, maxQ := 0.0, 0
	for _, r := range got.Rows {
		if r.Offloaded {
			if r.Speedup < 1.0 {
				t.Errorf("Q%d offloaded but slower: %.2fx", r.Query, r.Speedup)
			}
			if r.IOReduction < 1.0 {
				t.Errorf("Q%d offloaded but moved more pages: %.2fx", r.Query, r.IOReduction)
			}
		} else if r.Speedup != 1.0 {
			t.Errorf("Q%d not offloaded must be exactly 1.0, got %.2f", r.Query, r.Speedup)
		}
		if r.Speedup > maxSpeed {
			maxSpeed, maxQ = r.Speedup, r.Query
		}
	}
	if maxSpeed < 5 {
		t.Errorf("best query only %.1fx; the join-order magnification is missing", maxSpeed)
	}
	if maxQ != 12 && maxQ != 14 {
		t.Errorf("best query is Q%d; expected the Q12/Q14 join-magnification class", maxQ)
	}
	if got.TotalSpeedup < 1.5 {
		t.Errorf("suite speed-up %.2fx, want >1.5 (paper: 3.6)", got.TotalSpeedup)
	}
	for _, r := range got.Rows {
		t.Logf("Q%-2d %-34s conv=%-12v bisc=%-12v speedup=%6.1fx io=%6.1fx off=%v",
			r.Query, r.Title, r.ConvTime, r.BiscTime, r.Speedup, r.IOReduction, r.Offloaded)
	}
	p := paperFig10
	t.Logf("offloaded=%d geomeanOffloaded=%.1fx topFive=%.1fx total=%.1fx (paper: %d / %.1fx / %.1fx / %.1fx)",
		got.OffloadedCount, got.GeoMeanOff, got.TopFiveMean, got.TotalSpeedup, p.OffloadedCount, p.GeoMeanOff, p.TopFiveMean, p.TotalSpeedup)
}
