package bench

import "testing"

func TestServeCurveQuick(t *testing.T) {
	cfg := QuickConfig()
	sz := cfg.serveSizes()
	sc := RunServeCurve(cfg)
	wantPoints := len(sz.devices) * 2 * len(sz.loads)
	if len(sc.Points) != wantPoints {
		t.Fatalf("got %d points, want %d", len(sc.Points), wantPoints)
	}
	for i, pt := range sc.Points {
		r := pt.Report
		if r.Completed == 0 || r.AggThroughputQPS == 0 {
			t.Fatalf("point %d (%d dev, %s, %g qps) served nothing: %+v", i, pt.Devices, pt.Policy, pt.OfferedQPS, r)
		}
		if len(r.Tenants) != 2 {
			t.Fatalf("point %d has %d tenants, want 2", i, len(r.Tenants))
		}
		for _, tr := range r.Tenants {
			if tr.Offered != tr.Admitted+tr.Rejected || tr.Admitted != tr.Completed {
				t.Fatalf("point %d tenant %s accounting broken: %+v", i, tr.Name, tr)
			}
			if tr.Completed > 0 && (tr.RowDigest == 0 || tr.Lat.Count != int64(tr.Completed)) {
				t.Fatalf("point %d tenant %s missing digest or latency samples: %+v", i, tr.Name, tr)
			}
		}
	}
	// Same seed, same curve: the digests pin every window bit-exactly.
	again := RunServeCurve(cfg)
	for i := range sc.Points {
		a, b := sc.Points[i].Report, again.Points[i].Report
		if a.DispatchDigest != b.DispatchDigest {
			t.Fatalf("point %d dispatch digest diverged across same-seed runs", i)
		}
		for j := range a.Tenants {
			if a.Tenants[j].RowDigest != b.Tenants[j].RowDigest {
				t.Fatalf("point %d tenant %s row digest diverged", i, a.Tenants[j].Name)
			}
		}
	}
}
