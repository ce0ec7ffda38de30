package bench

import (
	"errors"
	"fmt"
	"io"

	"biscuit"
	"biscuit/internal/db"
	"biscuit/internal/db/planner"
	"biscuit/internal/fault"
	"biscuit/internal/sim"
	"biscuit/internal/stats"
	"biscuit/internal/tpch"
)

// The fault-curve experiment measures what the paper's evaluation never
// had to: how the platform behaves when the media misbehaves. Each
// sweep point arms a fault campaign of increasing intensity — scaled
// multiples of the moderate background plan, latent sector errors, and
// at the top end a whole dead die — then runs TPC-H Q6 repeatedly
// under the offload planner with the documented degradation ladder
// (NDP scan falls back to Conv internally; an offloaded aggregation
// that hits an unrecoverable page is rerun as a Conv plan). The curve
// reports availability (queries answered over queries issued), query
// latency digests, and how hard the recovery machinery — RAIN
// reconstruction, degraded reads, patrol scrub — had to work.

// faultPlanAt scales the moderate background plan to the given
// intensity. Intensity 0 is the fault-free platform; intensity 1 is
// fault.DefaultPlan; larger values multiply every probability (capped
// at 0.9 so the retry machinery still terminates) and add latent
// sector errors. At intensity >= dieFailIntensity the campaign also
// kills one die partway through the query phase.
func faultPlanAt(intensity float64) fault.Plan {
	if intensity == 0 {
		return fault.Plan{}
	}
	base := fault.DefaultPlan(seed)
	cap9 := func(p float64) float64 { return min(p*intensity, 0.9) }
	base.CorrectableProb = cap9(base.CorrectableProb)
	base.UncorrectableProb = cap9(base.UncorrectableProb)
	base.ProgramFailProb = cap9(base.ProgramFailProb)
	base.EraseFailProb = cap9(base.EraseFailProb)
	base.TimeoutProb = cap9(base.TimeoutProb)
	base.StallProb = cap9(base.StallProb)
	base.SilentProb = cap9(2e-4)
	return base
}

// dieFailIntensity is the sweep intensity at and beyond which the
// campaign additionally fails a whole die after the load phase.
const dieFailIntensity = 8

// FaultCurvePoint is one sweep point of the availability/latency-
// under-fault curve.
type FaultCurvePoint struct {
	Intensity float64
	Width     int    // RAIN stripe width W (0 = device default, Channels-1)
	Plan      string // canonical fault.Plan string, "" when fault-free
	DieFailed bool   // campaign killed a die before the queries

	Issued       int     // queries issued
	OK           int     // queries answered (any rung of the ladder)
	ConvReruns   int     // answers that needed a full Conv rerun
	Availability float64 // OK / Issued

	// Query latency digest across the point's repetitions (ns).
	Lat stats.LatencySummary

	// Recovery-machinery effort, from the platform counters.
	NDPFallbacks  int64 // "db.ndp.fallback": offloaded scans degraded internally
	Reconstructs  int64 // RAIN parity reconstructions
	DegradedReads int64 // host reads served through reconstruction
	ScrubStripes  int64 // stripes examined by the patrol scrub
	ScrubRepairs  int64 // pages the scrub healed
	LostPages     int64 // pages lost beyond parity protection (poisoned)
}

// FaultCurve is the full sweep plus the final point's full latency
// snapshot (the most hostile platform's distributions).
type FaultCurve struct {
	SF     float64
	Points []FaultCurvePoint

	Lat []stats.NamedSummary `json:"lat"`
}

// WriteMarkdown renders one row per sweep point.
func (fc FaultCurve) WriteMarkdown(w io.Writer) {
	var rows [][]string
	for _, pt := range fc.Points {
		width := "auto"
		if pt.Width > 0 {
			width = fmt.Sprint(pt.Width)
		}
		rows = append(rows, []string{num(pt.Intensity), width, fmt.Sprint(pt.DieFailed), num(100 * pt.Availability),
			fmt.Sprintf("%d / %d", pt.OK, pt.Issued), fmt.Sprint(pt.ConvReruns), ms(pt.Lat.P50), ms(pt.Lat.P95), ms(pt.Lat.P99),
			fmt.Sprint(pt.NDPFallbacks), fmt.Sprint(pt.Reconstructs), fmt.Sprint(pt.DegradedReads), fmt.Sprint(pt.ScrubRepairs), fmt.Sprint(pt.LostPages)})
	}
	table(w, []string{"intensity", "RAIN W", "die failed", "avail. %", "answered", "Conv reruns", "p50 (ms)", "p95 (ms)", "p99 (ms)",
		"NDP fallbacks", "reconstructs", "degraded reads", "scrub repairs", "lost pages"}, rows...)
}

// faultSizes is the fault-curve grid: intensities are multiples of the
// moderate background fault plan (0 = fault-free baseline), widths the
// RAIN stripe widths swept (0 = the device default, Channels-1), queries
// the Q6 repetitions per point and sf the TPC-H load.
type faultSizes struct {
	intensities []float64
	widths      []int
	queries     int
	sf          float64
}

func (c Config) faultSizes() faultSizes {
	if c.quick {
		return faultSizes{intensities: []float64{0, 2, 16}, widths: []int{0}, queries: 4, sf: 0.002}
	}
	return faultSizes{intensities: []float64{0, 1, 4, 16}, widths: []int{0, 4}, queries: 12, sf: 0.004}
}

// RunFaultCurve sweeps the intensities at every RAIN stripe width: a
// narrower stripe pays more parity overhead but shrinks each
// reconstruction's read fan-in, which the curve makes measurable. Each
// point builds a fresh platform with the scaled campaign, loads TPC-H,
// starts the patrol scrub, and issues Q6 sz.queries times.
func RunFaultCurve(cfg Config) FaultCurve {
	sz := cfg.faultSizes()
	out := FaultCurve{SF: sz.sf}
	var pt FaultCurvePoint
	var sys *biscuit.System
	for _, width := range sz.widths {
		for _, intensity := range sz.intensities {
			pt, sys = runFaultPoint(sz, intensity, width)
			out.Points = append(out.Points, pt)
		}
	}
	out.Lat = sys.Plat.Hists.Snapshot()
	return out
}

func runFaultPoint(sz faultSizes, intensity float64, width int) (FaultCurvePoint, *biscuit.System) {
	plan := faultPlanAt(intensity)
	scfg := platformConfig()
	scfg.FTL.StripeDataPages = width
	scfg.Fault = plan
	sys := newSystemWith(scfg)

	pt := FaultCurvePoint{Intensity: intensity, Width: width}
	if plan.Enabled() {
		pt.Plan = plan.String()
	}

	data := loadTPCH(sys, sz.sf)

	lat := stats.NewHistogram()
	sys.Run(func(h *biscuit.Host) {
		plat := h.System().Plat
		plat.StartScrub()
		defer plat.StopScrub()
		if intensity >= dieFailIntensity && plat.Inj != nil {
			plat.Inj.FailDie(1)
			pt.DieFailed = true
		}
		for i := 0; i < sz.queries; i++ {
			pt.Issued++
			took, reran, err := runQ6Ladder(h, data)
			if err != nil {
				continue // query unavailable: beyond the ladder's reach
			}
			pt.OK++
			if reran {
				pt.ConvReruns++
			}
			lat.Record(int64(took))
		}
	})
	if pt.Issued > 0 {
		pt.Availability = float64(pt.OK) / float64(pt.Issued)
	}
	pt.Lat = lat.Summary()

	ctrs := sys.Plat.Ctrs
	pt.NDPFallbacks = ctrs.Get("db.ndp.fallback")
	rs := sys.Plat.FTL.Rain()
	pt.Reconstructs = rs.Reconstructs
	pt.DegradedReads = rs.DegradedReads
	pt.ScrubStripes = rs.ScrubStripes
	pt.ScrubRepairs = rs.ScrubRepairs + rs.ScrubParityFixes
	pt.LostPages = rs.LostPages
	return pt, sys
}

// runQ6Ladder is the bench-side degradation ladder: offload plan first,
// full Conv rerun on an unrecoverable media error. It returns the
// virtual time of the answering rung.
func runQ6Ladder(h *biscuit.Host, data *tpch.Data) (sim.Time, bool, error) {
	q := tpch.ByID(6)
	bisc := &tpch.QCtx{Ex: db.NewExec(h, data.DB), D: data, Pl: planner.Default()}
	var err error
	took := timeIt(h, func() {
		_, err = q.Run(bisc)
	})
	if err == nil {
		return took, false, nil
	}
	if !errors.Is(err, fault.ErrUncorrectable) {
		panic(fmt.Sprintf("bench: faultcurve Q6 non-media failure: %v", err))
	}
	conv := &tpch.QCtx{Ex: db.NewExec(h, data.DB), D: data}
	took = timeIt(h, func() {
		_, err = q.Run(conv)
	})
	if err != nil {
		return 0, true, err // both rungs failed: the query is unavailable
	}
	return took, true, nil
}
