// Package bench regenerates every table and figure of the paper's
// evaluation (§V) and the ablations behind its §I/§VI claims: each
// RunXxx function builds fresh simulated platforms, executes the
// corresponding experiment and returns typed rows that cmd/biscuitbench
// prints, writes as BENCH_<exp>.json and `make benchgate` compares
// against baselines/. Calibration tests in this package pin the
// headline numbers (Tables II and III) to the paper's measurements.
package bench

import (
	"fmt"

	"biscuit"
	"biscuit/internal/db"
	"biscuit/internal/sim"
	"biscuit/internal/tpch"
)

// Config carries the sizes a caller actually chooses: the preset
// (DefaultConfig or QuickConfig) and the TPC-H scale factor
// biscuitbench's -sf flag and the tests override. Everything else —
// sweep grids, corpus sizes, windows, repetitions — is a per-preset
// value owned by the experiment that uses it (see each file's *Sizes
// function). The paper's datasets (160 GiB TPC-H, 7.8 GiB logs, 20 GiB
// graph) are scaled down so that discrete-event simulation finishes in
// seconds; EXPERIMENTS.md records the scales and why ratios survive
// scaling.
type Config struct {
	// SF is the TPC-H scale factor of Fig. 8, Fig. 9 and Fig. 10.
	SF float64

	// quick selects every experiment's reduced sizes.
	quick bool
}

// seed drives all generators.
const seed int64 = 1

// joinBufferRows is the MariaDB join-buffer size, in rows, of every
// timed plan's block-nested-loop joins.
const joinBufferRows = 512

// DefaultConfig returns sizes that keep each experiment under roughly a
// minute of wall time while leaving every table big enough to exercise
// all 16 channels.
func DefaultConfig() Config { return Config{SF: 0.02} }

// QuickConfig returns much smaller sizes for unit tests.
func QuickConfig() Config { return Config{SF: 0.004, quick: true} }

// OnSystem, when non-nil, is invoked on every platform an experiment
// builds. cmd/biscuitbench uses it to install a tracer (or other
// observers) without widening every Run signature; experiments stay
// observer-agnostic.
var OnSystem func(*biscuit.System)

// platformConfig is the paper-calibrated platform with media geometry
// scaled to the experiments' footprint (full 16-channel parallelism,
// fewer blocks so simulation memory stays modest).
func platformConfig() biscuit.Config {
	cfg := biscuit.DefaultConfig()
	cfg.NAND.BlocksPerDie = 512
	cfg.NAND.PagesPerBlock = 64
	return cfg
}

// newSystem builds the platformConfig platform.
func newSystem() *biscuit.System { return newSystemWith(platformConfig()) }

// newSystemWith builds a platform from cfg — every experiment's only
// way to one, so OnSystem sees them all.
func newSystemWith(cfg biscuit.Config) *biscuit.System {
	sys := biscuit.NewSystem(cfg)
	if OnSystem != nil {
		OnSystem(sys)
	}
	return sys
}

// must panics, naming the step, on a failure no experiment can measure
// past: the platforms here inject no faults unless the experiment says
// so, and a number taken over a failed step would be a wrong number.
func must(step string, err error) {
	if err != nil {
		panic(fmt.Sprintf("bench: %s: %v", step, err))
	}
}

// loadTPCH opens a database on sys and loads TPC-H at scale factor sf.
func loadTPCH(sys *biscuit.System, sf float64) *tpch.Data {
	d := db.Open(sys)
	var data *tpch.Data
	sys.Run(func(h *biscuit.Host) {
		var err error
		data, err = tpch.Gen{SF: sf}.Load(h, d, biscuit.SeededRand(seed))
		must(fmt.Sprintf("TPC-H load at SF %g", sf), err)
	})
	return data
}

// preload creates a file of n zero bytes and returns the FTL offset of
// its first extent, for experiments that read the media below the file
// system.
func preload(h *biscuit.Host, name string, n int) int64 {
	f, err := h.SSD().CreateFile(name)
	must("preload "+name, err)
	must("preload "+name, h.SSD().WriteFile(f, 0, make([]byte, n)))
	segs, err := f.Segments(0, n)
	must("preload "+name, err)
	return segs[0].FTLOff
}

// timedExec runs one plan on a fresh executor and returns its rows, the
// virtual time it took with the executor's batched CPU cost flushed,
// and the executor for its counters.
func timedExec(h *biscuit.Host, d *db.Database, plan func(*db.Exec) ([]db.Row, error)) ([]db.Row, sim.Time, *db.Exec) {
	ex := db.NewExec(h, d)
	ex.JoinBufferRows = joinBufferRows
	start := h.Now()
	rows, err := plan(ex)
	must("timed plan", err)
	ex.FlushCost()
	return rows, h.Now() - start, ex
}

// timeIt measures a host-program step in virtual time.
func timeIt(h *biscuit.Host, fn func()) sim.Time {
	start := h.Now()
	fn()
	return h.Now() - start
}
