package bench

import "testing"

func TestFaultCurveQuick(t *testing.T) {
	cfg := QuickConfig()
	sz := cfg.faultSizes()
	fc := RunFaultCurve(cfg)
	if len(fc.Points) != len(sz.intensities) {
		t.Fatalf("got %d points, want %d", len(fc.Points), len(sz.intensities))
	}
	base := fc.Points[0]
	if base.Intensity != 0 || base.Plan != "" {
		t.Fatalf("first point must be the fault-free baseline: %+v", base)
	}
	if base.Availability != 1 || base.ConvReruns != 0 || base.Reconstructs != 0 {
		t.Fatalf("fault-free point shows fault activity: %+v", base)
	}
	for i, pt := range fc.Points {
		if pt.Issued != sz.queries || pt.OK > pt.Issued {
			t.Fatalf("point %d issued %d queries, want %d", i, pt.Issued, sz.queries)
		}
		if pt.Availability == 0 {
			t.Fatalf("point %d answered nothing — the ladder is broken: %+v", i, pt)
		}
		if pt.Lat.Count != int64(pt.OK) {
			t.Fatalf("point %d digested %d latencies for %d answers", i, pt.Lat.Count, pt.OK)
		}
		if pt.Intensity > 0 && pt.ScrubStripes == 0 {
			t.Fatalf("point %d ran no patrol scrub", i)
		}
	}
	hostile := fc.Points[len(fc.Points)-1]
	if !hostile.DieFailed {
		t.Fatalf("top intensity must kill a die: %+v", hostile)
	}
	if hostile.Reconstructs == 0 || hostile.DegradedReads == 0 {
		t.Fatalf("a dead die must force RAIN reconstruction: %+v", hostile)
	}
	if hostile.Lat.P50 <= base.Lat.P50 {
		t.Fatalf("hostile p50 %d should exceed fault-free p50 %d",
			hostile.Lat.P50, base.Lat.P50)
	}
}
