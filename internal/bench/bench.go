// Package bench regenerates every table and figure of the paper's
// evaluation (§V): each RunXxx function builds a fresh simulated
// platform, executes the corresponding experiment and returns typed rows
// that cmd/biscuitbench prints and the repository-root benchmarks
// report. Calibration tests in this package pin the headline numbers
// (Tables II and III) to the paper's measurements.
package bench

import (
	"biscuit"
	"biscuit/internal/sim"
	"biscuit/internal/stats"
)

// Config carries the sizes a caller actually chooses: the preset
// (DefaultConfig or QuickConfig) and the few TPC-H knobs biscuitbench's
// flags and the tests override. Everything else — sweep grids, corpus
// sizes, windows — is a per-preset value owned by the experiment that
// uses it (see each file's *Sizes function). The paper's datasets
// (160 GiB TPC-H, 7.8 GiB logs, 20 GiB graph) are scaled down so that
// discrete-event simulation finishes in seconds; EXPERIMENTS.md records
// the scales and why ratios survive scaling.
type Config struct {
	// Fig8SF is the TPC-H scale factor for Fig. 8/9, Fig10SF for
	// Fig. 10.
	Fig8SF  float64
	Fig10SF float64
	// JoinBufferRows is the MariaDB join-buffer size in rows for Fig. 10
	// block-nested-loop joins.
	JoinBufferRows int
	// Fig8Reps is the repetition count behind Fig. 8's error bars.
	Fig8Reps int

	// quick selects every experiment's reduced sizes.
	quick bool
}

// seed drives all generators.
const seed int64 = 1

// DefaultConfig returns sizes that keep each experiment under roughly a
// minute of wall time while leaving every table big enough to exercise
// all 16 channels.
func DefaultConfig() Config {
	return Config{Fig8SF: 0.02, Fig10SF: 0.02, JoinBufferRows: 512, Fig8Reps: 10}
}

// QuickConfig returns much smaller sizes for unit tests.
func QuickConfig() Config {
	return Config{Fig8SF: 0.004, Fig10SF: 0.004, JoinBufferRows: 512, Fig8Reps: 3, quick: true}
}

// OnSystem, when non-nil, is invoked on every platform an experiment
// builds. cmd/biscuitbench uses it to install a tracer (or other
// observers) without widening every Run signature; experiments stay
// observer-agnostic.
var OnSystem func(*biscuit.System)

// newSystem builds the paper-calibrated platform with media geometry
// scaled to the experiment's footprint (full 16-channel parallelism,
// fewer blocks so simulation memory stays modest).
func newSystem() *biscuit.System {
	cfg := biscuit.DefaultConfig()
	cfg.NAND.BlocksPerDie = 512
	cfg.NAND.PagesPerBlock = 64
	sys := biscuit.NewSystem(cfg)
	if OnSystem != nil {
		OnSystem(sys)
	}
	return sys
}

// latencies digests the platform's histogram registry for embedding in
// an experiment's result struct: every metric the run touched
// ("hostif.read", "ftl.gc.round", "db.scan.ndp", ...) as p50/p95/p99/max.
func latencies(sys *biscuit.System) []stats.NamedSummary {
	return sys.Plat.Hists.Snapshot()
}

// timeIt measures a host-program step in virtual time.
func timeIt(h *biscuit.Host, fn func()) sim.Time {
	start := h.Now()
	fn()
	return h.Now() - start
}
