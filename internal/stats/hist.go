package stats

import (
	"math/bits"
	"sort"
)

// Histogram is an HDR-style log-linear histogram of non-negative int64
// samples (by convention, latencies in integer nanoseconds). Buckets
// are exact for values below 32 and thereafter split each power of two
// into 32 linear sub-buckets, bounding quantile error to ~3% while the
// whole structure stays a fixed flat array — no allocation per Record,
// deterministic, and trivially mergeable.
//
// Like Counters it is simulation-grade: no atomics (the sim kernel
// serializes all processes), and a nil *Histogram ignores Record so
// device code can observe unconditionally.
type Histogram struct {
	counts [histBuckets]int64
	count  int64
	sum    int64
	min    int64
	max    int64
}

const (
	histSubBits  = 5
	histSubCount = 1 << histSubBits                  // 32 sub-buckets per power of two
	histBuckets  = (64 - histSubBits) * histSubCount // covers all positive int64
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Record adds one sample. Negative samples clamp to zero. A nil
// histogram ignores the call.
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[bucketIdx(v)]++
	h.sum += v
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
}

// Count reports the number of recorded samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Max reports the largest recorded sample (0 if empty).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Min reports the smallest recorded sample (0 if empty).
func (h *Histogram) Min() int64 {
	if h == nil {
		return 0
	}
	return h.min
}

// Mean reports the integer mean sample (0 if empty).
func (h *Histogram) Mean() int64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.sum / h.count
}

// Quantile returns an estimate of the q-quantile (0 <= q <= 1) of the
// recorded samples: the midpoint of the bucket holding the rank-q
// sample, clamped to the exact observed [min, max].
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil || h.count == 0 {
		return 0
	}
	rank := int64(q*float64(h.count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.counts[i]
		if cum >= rank {
			v := bucketLo(i) + bucketWidth(i)/2
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// bucketIdx maps a non-negative value to its bucket.
func bucketIdx(v int64) int {
	if v < histSubCount {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // position of the top set bit, >= histSubBits
	g := exp - histSubBits + 1
	sub := int(v>>(uint(exp-histSubBits))) - histSubCount
	return g<<histSubBits + sub
}

// bucketLo is the smallest value mapping to bucket i.
func bucketLo(i int) int64 {
	g := i >> histSubBits
	sub := int64(i & (histSubCount - 1))
	if g == 0 {
		return sub
	}
	return (histSubCount + sub) << uint(g-1)
}

// bucketWidth is the number of distinct values mapping to bucket i.
func bucketWidth(i int) int64 {
	g := i >> histSubBits
	if g == 0 {
		return 1
	}
	return 1 << uint(g-1)
}

// LatencySummary is the percentile digest of one histogram, shaped for
// embedding in BENCH_<exp>.json outputs. All values are integer
// nanoseconds of virtual time.
type LatencySummary struct {
	Count int64 `json:"count"`
	P50   int64 `json:"p50_ns"`
	P95   int64 `json:"p95_ns"`
	P99   int64 `json:"p99_ns"`
	Max   int64 `json:"max_ns"`
	Mean  int64 `json:"mean_ns"`
}

// Summary digests the histogram. A nil or empty histogram yields the
// zero summary.
func (h *Histogram) Summary() LatencySummary {
	if h == nil || h.count == 0 {
		return LatencySummary{}
	}
	return LatencySummary{
		Count: h.count,
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Max:   h.max,
		Mean:  h.Mean(),
	}
}

// Histograms is a named-histogram registry, the distribution-valued
// sibling of Counters. Names are free-form dotted strings
// ("hostif.read"). A nil registry ignores Observe, so components
// record unconditionally.
type Histograms struct {
	m map[string]*Histogram
}

// NewHistograms returns an empty registry.
func NewHistograms() *Histograms { return &Histograms{m: map[string]*Histogram{}} }

// Observe records one sample into the named histogram, creating it on
// first use. A nil registry ignores the call.
func (hs *Histograms) Observe(name string, v int64) {
	if hs == nil {
		return
	}
	h := hs.m[name]
	if h == nil {
		h = NewHistogram()
		hs.m[name] = h
	}
	h.Record(v)
}

// H returns the named histogram, creating it if needed, so hot paths
// can resolve the name once and Record directly instead of paying the
// map lookup per sample. A nil registry returns nil (and a nil
// *Histogram ignores Record), so callers need no guard.
func (hs *Histograms) H(name string) *Histogram {
	if hs == nil {
		return nil
	}
	h := hs.m[name]
	if h == nil {
		h = NewHistogram()
		hs.m[name] = h
	}
	return h
}

// Get returns the named histogram, or nil if nothing was observed
// under that name (nil is safe to query).
func (hs *Histograms) Get(name string) *Histogram {
	if hs == nil {
		return nil
	}
	return hs.m[name]
}

// NamedSummary is one (name, digest) pair of a snapshot.
type NamedSummary struct {
	Name    string
	Summary LatencySummary
}

// Snapshot returns all histograms' digests sorted by name.
func (hs *Histograms) Snapshot() []NamedSummary {
	if hs == nil {
		return nil
	}
	out := make([]NamedSummary, 0, len(hs.m))
	for k, v := range hs.m {
		out = append(out, NamedSummary{k, v.Summary()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
