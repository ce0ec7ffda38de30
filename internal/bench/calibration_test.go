package bench

import (
	"testing"

	"biscuit/internal/sim"
)

// within asserts got is inside tol (fractional) of want.
func within(t *testing.T, name string, got, want sim.Time, tol float64) {
	t.Helper()
	lo := float64(want) * (1 - tol)
	hi := float64(want) * (1 + tol)
	if g := float64(got); g < lo || g > hi {
		t.Errorf("%s = %v, want %v ±%.0f%%", name, got, want, tol*100)
	}
}

// TestTable2Calibration pins the port latencies to Table II of the
// paper (paperTable2). The model constants in internal/device are
// calibrated against these numbers; drift fails here first.
func TestTable2Calibration(t *testing.T) {
	got, p := RunTable2(), paperTable2
	within(t, "H2D", got.H2D, p.H2D, 0.02)
	within(t, "D2H", got.D2H, p.D2H, 0.02)
	within(t, "inter-SSDlet", got.InterSSDlet, p.InterSSDlet, 0.02)
	within(t, "inter-app", got.InterApp, p.InterApp, 0.02)
	t.Logf("Table II: H2D=%v D2H=%v interSSDlet=%v interApp=%v", got.H2D, got.D2H, got.InterSSDlet, got.InterApp)
}

// TestTable3Calibration pins the 4 KiB read latencies to Table III
// (paperTable3).
func TestTable3Calibration(t *testing.T) {
	got := RunTable3()
	within(t, "Conv read", got.Conv, paperTable3.Conv, 0.02)
	within(t, "Biscuit read", got.Biscuit, paperTable3.Biscuit, 0.02)
	if got.Biscuit >= got.Conv {
		t.Error("internal read must be faster than the host path")
	}
	t.Logf("Table III: Conv=%v Biscuit=%v (gap %v)", got.Conv, got.Biscuit, got.Conv-got.Biscuit)
}

// TestFig7Shape checks the bandwidth-curve structure of Fig. 7:
// bandwidth grows with request size; async saturates early; Conv is
// link-capped at ~3.2 GB/s while Biscuit exceeds it by >25%; the
// matcher path lies between the two at saturation.
func TestFig7Shape(t *testing.T) {
	got := RunFig7()
	lastA := got.Async[len(got.Async)-1]
	if lastA.Conv > 3.2*1.01 {
		t.Errorf("Conv async plateau %.2f GB/s exceeds the PCIe link", lastA.Conv)
	}
	if lastA.Conv < 2.8 {
		t.Errorf("Conv async plateau %.2f GB/s too low (link is 3.2)", lastA.Conv)
	}
	if lastA.Biscuit < lastA.Conv*1.25 {
		t.Errorf("internal bandwidth %.2f must exceed Conv %.2f by >25%% (paper: ~1 GB/s more)", lastA.Biscuit, lastA.Conv)
	}
	if !(lastA.Matcher < lastA.Biscuit && lastA.Matcher > lastA.Conv*0.95) {
		t.Errorf("matcher bandwidth %.2f should lie between Conv %.2f and Biscuit %.2f", lastA.Matcher, lastA.Conv, lastA.Biscuit)
	}
	// Sync curves keep growing with request size; async saturates by
	// ~512 KiB (the paper's "as early as ~500 KiB").
	s := got.Sync
	for i := 1; i < len(s); i++ {
		if s[i].Biscuit < s[i-1].Biscuit*0.95 {
			t.Errorf("sync Biscuit bandwidth not monotone at %d KiB", s[i].ReqSize>>10)
		}
	}
	var a256 Fig7Point
	for _, p := range got.Async {
		if p.ReqSize == 256<<10 {
			a256 = p
		}
	}
	if a256.Biscuit < lastA.Biscuit*0.9 {
		t.Errorf("async should be near-saturated by 256 KiB: %.2f vs plateau %.2f", a256.Biscuit, lastA.Biscuit)
	}
	for _, p := range got.Async {
		t.Logf("async %7d KiB: conv=%.2f biscuit=%.2f matcher=%.2f GB/s", p.ReqSize>>10, p.Conv, p.Biscuit, p.Matcher)
	}
}

// TestTable4Shape: pointer chasing gains ~11% unloaded; Conv degrades
// with load, Biscuit stays flat (Table IV).
func TestTable4Shape(t *testing.T) {
	got := RunTable4(QuickConfig())
	first, last := got.Rows[0], got.Rows[len(got.Rows)-1]
	gain := float64(first.Conv) / float64(first.Biscuit)
	if gain < 1.05 || gain > 1.5 {
		t.Errorf("unloaded gain %.2f outside Table IV band (paper: ~1.11)", gain)
	}
	if float64(last.Conv) <= float64(first.Conv)*1.02 {
		t.Errorf("Conv must degrade with load: %v -> %v", first.Conv, last.Conv)
	}
	drift := float64(last.Biscuit) / float64(first.Biscuit)
	if drift > 1.03 {
		t.Errorf("Biscuit must be load-insensitive: drift %.3f", drift)
	}
	for _, r := range got.Rows {
		t.Logf("threads=%2d conv=%v biscuit=%v", r.Threads, r.Conv, r.Biscuit)
	}
}

// TestTable5Shape: string search gains >=4x unloaded and grows with
// load (paper: 5.3x -> 8.3x).
func TestTable5Shape(t *testing.T) {
	got := RunTable5(QuickConfig())
	first, last := got.Rows[0], got.Rows[len(got.Rows)-1]
	g0 := float64(first.Conv) / float64(first.Biscuit)
	gN := float64(last.Conv) / float64(last.Biscuit)
	if g0 < 4 {
		t.Errorf("unloaded search gain %.2f, want >=4 (paper 5.3)", g0)
	}
	if gN <= g0 {
		t.Errorf("gain must grow with load: %.2f -> %.2f", g0, gN)
	}
	if float64(last.Biscuit) > float64(first.Biscuit)*1.05 {
		t.Errorf("Biscuit search must be load-insensitive")
	}
	if got.Matches == 0 {
		t.Error("search found nothing")
	}
	for _, r := range got.Rows {
		t.Logf("threads=%2d conv=%v biscuit=%v gain=%.1fx", r.Threads, r.Conv, r.Biscuit,
			float64(r.Conv)/float64(r.Biscuit))
	}
}

// TestFig8Shape: both queries speed up by several x; Conv varies across
// repetitions more than Biscuit does (the error bars of Fig. 8).
func TestFig8Shape(t *testing.T) {
	got := RunFig8(QuickConfig())
	s1 := got.Q1Conv.MeanS / got.Q1Biscuit.MeanS
	s2 := got.Q2Conv.MeanS / got.Q2Biscuit.MeanS
	if s1 < 2 || s2 < 2 {
		t.Errorf("Fig8 speedups %.1f / %.1f, want >2 (paper ~%g/%g)", s1, s2, paperFig8.Q1, paperFig8.Q2)
	}
	if s2 > s1 {
		t.Logf("note: Q2 (%.1fx) above Q1 (%.1fx); paper has Q1 slightly ahead", s2, s1)
	}
	relC := got.Q1Conv.CI95S / got.Q1Conv.MeanS
	relB := got.Q1Biscuit.CI95S / got.Q1Biscuit.MeanS
	if relB > relC {
		t.Errorf("Biscuit runs must be more consistent than Conv: CI %.3f vs %.3f", relB, relC)
	}
	t.Logf("Q1: conv=%.4fs±%.4f biscuit=%.4fs±%.4f speedup=%.1fx", got.Q1Conv.MeanS, got.Q1Conv.CI95S, got.Q1Biscuit.MeanS, got.Q1Biscuit.CI95S, s1)
	t.Logf("Q2: conv=%.4fs±%.4f biscuit=%.4fs±%.4f speedup=%.1fx", got.Q2Conv.MeanS, got.Q2Conv.CI95S, got.Q2Biscuit.MeanS, got.Q2Biscuit.CI95S, s2)
}

// TestFig9Shape: Biscuit's average power is higher but its execution is
// so much shorter that it uses several times less energy (Table VI's
// ~5x).
func TestFig9Shape(t *testing.T) {
	got := RunFig9(QuickConfig())
	if got.Biscuit.ExecS >= got.Conv.ExecS {
		t.Errorf("Biscuit exec %.4fs must be shorter than Conv %.4fs", got.Biscuit.ExecS, got.Conv.ExecS)
	}
	if len(got.Conv.Watts) == 0 || len(got.Biscuit.Watts) == 0 {
		t.Fatal("empty power traces")
	}
	// Peak power during execution exceeds idle for both.
	peak := func(tr Fig9Trace) float64 {
		p := 0.0
		for _, w := range tr.Watts {
			if w > p {
				p = w
			}
		}
		return p
	}
	if peak(got.Conv) <= got.IdleW || peak(got.Biscuit) <= got.IdleW {
		t.Error("execution must raise power above idle")
	}
	ratio := got.Conv.EnergyJ / got.Biscuit.EnergyJ
	if ratio < 1.5 {
		t.Errorf("Conv/Biscuit energy ratio %.2f, want >1.5 (paper ~5)", ratio)
	}
	t.Logf("Conv: exec=%.4fs avg=%.1fW peak=%.1fW E=%.3fJ | Biscuit: exec=%.4fs avg=%.1fW peak=%.1fW E=%.3fJ | ratio=%.1fx",
		got.Conv.ExecS, got.Conv.AvgW, peak(got.Conv), got.Conv.EnergyJ,
		got.Biscuit.ExecS, got.Biscuit.AvgW, peak(got.Biscuit), got.Biscuit.EnergyJ, ratio)
}
