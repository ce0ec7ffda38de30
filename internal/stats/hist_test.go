package stats

import (
	"encoding/json"
	"math"
	"testing"
)

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Record(5)
	if h.Count() != 0 || h.Max() != 0 || h.Min() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram must read as empty")
	}
	if s := h.Summary(); s != (LatencySummary{}) {
		t.Fatalf("nil summary = %+v, want zero", s)
	}
}

func TestHistogramExactSmallValues(t *testing.T) {
	h := NewHistogram()
	for v := int64(0); v < 32; v++ {
		h.Record(v)
	}
	if h.Count() != 32 || h.Min() != 0 || h.Max() != 31 {
		t.Fatalf("count=%d min=%d max=%d", h.Count(), h.Min(), h.Max())
	}
	// Values below 32 land in exact buckets: the median of 0..31 is
	// recoverable exactly.
	if q := h.Quantile(0.5); q != 15 && q != 16 {
		t.Fatalf("p50 of 0..31 = %d", q)
	}
}

func TestHistogramRelativeError(t *testing.T) {
	// Log-linear with 32 sub-buckets bounds relative quantile error to
	// ~1/32 plus the midpoint offset; assert < 5% across magnitudes.
	for _, v := range []int64{100, 999, 12_345, 1_000_000, 87_654_321, 1 << 40} {
		h := NewHistogram()
		h.Record(v)
		got := h.Quantile(0.5)
		relerr := math.Abs(float64(got-v)) / float64(v)
		if relerr > 0.05 {
			t.Fatalf("v=%d got=%d relerr=%.4f", v, got, relerr)
		}
	}
}

func TestHistogramQuantilesOrdered(t *testing.T) {
	h := NewHistogram()
	for i := int64(1); i <= 10_000; i++ {
		h.Record(i * 100)
	}
	p50, p95, p99 := h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)
	if !(p50 <= p95 && p95 <= p99 && p99 <= h.Max()) {
		t.Fatalf("quantiles out of order: p50=%d p95=%d p99=%d max=%d", p50, p95, p99, h.Max())
	}
	// p50 of 100..1_000_000 uniform should be near 500_000.
	if p50 < 450_000 || p50 > 550_000 {
		t.Fatalf("p50 = %d, want ~500000", p50)
	}
	if h.Max() != 1_000_000 {
		t.Fatalf("max = %d", h.Max())
	}
}

func TestHistogramClampsNegative(t *testing.T) {
	h := NewHistogram()
	h.Record(-5)
	if h.Min() != 0 || h.Max() != 0 || h.Count() != 1 {
		t.Fatalf("negative sample not clamped: min=%d max=%d", h.Min(), h.Max())
	}
}

func TestBucketRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, 31, 32, 33, 63, 64, 100, 1023, 1024, 1 << 20, 1<<40 + 12345, math.MaxInt64} {
		i := bucketIdx(v)
		lo, w := bucketLo(i), bucketWidth(i)
		// v-lo < w rather than v < lo+w: lo+w overflows int64 in the
		// topmost bucket.
		if v < lo || v-lo >= w {
			t.Fatalf("v=%d idx=%d lo=%d width=%d: value outside its bucket", v, i, lo, w)
		}
		if i < 0 || i >= histBuckets {
			t.Fatalf("v=%d idx=%d out of range", v, i)
		}
	}
}

func TestLatencySummaryJSONShape(t *testing.T) {
	h := NewHistogram()
	h.Record(1000)
	h.Record(2000)
	data, err := json.Marshal(h.Summary())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]int64
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"count", "p50_ns", "p95_ns", "p99_ns", "max_ns", "mean_ns"} {
		if _, ok := m[k]; !ok {
			t.Fatalf("summary JSON missing %q: %s", k, data)
		}
	}
	if m["count"] != 2 || m["max_ns"] != 2000 || m["mean_ns"] != 1500 {
		t.Fatalf("summary = %s", data)
	}
}

func TestHistogramsRegistry(t *testing.T) {
	var nilReg *Histograms
	nilReg.Observe("x", 1) // must not panic
	if nilReg.Get("x") != nil || nilReg.Snapshot() != nil {
		t.Fatal("nil registry must read as empty")
	}

	hs := NewHistograms()
	hs.Observe("b.second", 10)
	hs.Observe("a.first", 20)
	hs.Observe("a.first", 30)
	snap := hs.Snapshot()
	if len(snap) != 2 || snap[0].Name != "a.first" || snap[1].Name != "b.second" {
		t.Fatalf("snapshot order: %+v", snap)
	}
	if snap[0].Summary.Count != 2 || snap[1].Summary.Count != 1 {
		t.Fatalf("counts: %+v", snap)
	}
	if hs.Get("a.first").Max() != 30 {
		t.Fatalf("max = %d", hs.Get("a.first").Max())
	}
	if hs.Get("missing") != nil {
		t.Fatal("Get(missing) should be nil")
	}
}

func TestHistogramRecordNoAllocs(t *testing.T) {
	h := NewHistogram()
	allocs := testing.AllocsPerRun(1000, func() { h.Record(123456) })
	if allocs != 0 {
		t.Fatalf("Record allocates %v allocs/op, want 0", allocs)
	}
}

func TestHistogramsSnapshotStableUnderMutation(t *testing.T) {
	hs := NewHistograms()
	hs.Observe("hostif.read", 1000)
	hs.Observe("hostif.read", 3000)
	snap := hs.Snapshot()
	hs.Observe("hostif.read", 1_000_000) // the window keeps serving
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d entries, want 1", len(snap))
	}
	if got := snap[0].Summary.Count; got != 2 {
		t.Fatalf("snapshot count moved to %d, want 2", got)
	}
	if got := hs.Get("hostif.read").Count(); got != 3 {
		t.Fatalf("live histogram count = %d, want 3", got)
	}
}
