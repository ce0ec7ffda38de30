package fibers

import (
	"testing"

	"biscuit/internal/sim"
)

// yieldRun spins up a 2-fiber group that yields back and forth k times
// each on a tracer-less, histogram-less runtime and returns total
// allocations for the run.
func yieldRun(k int) float64 {
	return testing.AllocsPerRun(1, func() {
		env := sim.NewEnv()
		rt := New(env, Config{Cores: 1, Hz: 750e6, CSW: 100})
		g := rt.NewGroup()
		for i := 0; i < 2; i++ {
			g.Go("pingpong", func(f *Fiber) {
				for j := 0; j < k; j++ {
					f.Yield()
				}
			})
		}
		env.Run()
	})
}

// TestBlockZeroAllocDisabledTracer: with tracing and histograms
// disabled, the fiber Block/Yield path (span end, core release, park,
// typed wake, core re-acquire, context-switch sleep) must allocate
// nothing per switch. Doubling the yield count must not change the
// run's allocation total — the fixed setup (runtime, group, fibers,
// workers) is all there is.
func TestBlockZeroAllocDisabledTracer(t *testing.T) {
	const k = 20000
	base, double := yieldRun(k), yieldRun(2*k)
	if marginal := double - base; marginal > 16 {
		t.Fatalf("marginal cost of %d extra fiber switches is %.0f allocs, want 0 (base=%.0f double=%.0f)",
			2*k, marginal, base, double)
	}
}
