package bench

import (
	"fmt"
	"io"

	"biscuit/internal/serve"
	"biscuit/internal/sim"
)

// The heal-curve experiment measures the self-healing stack end to end:
// each point serves one multi-tenant window on a two-device array, kills
// a die on device 0 partway through, and varies what the array is
// allowed to do about it — nothing beyond reconstruct-on-read (the
// degraded baseline), proactive background rebuild, tenant migration
// onto the replica shard, or both. The curve's claim is that availability
// with rebuild+migration is at least the reconstruct-on-read baseline at
// every fail time, and the clean tenant pinned to the healthy device
// keeps a byte-identical row digest throughout.

// HealPoint is one cell of the healing grid.
type HealPoint struct {
	// FailFrac places the die failure at this fraction of the window;
	// 0 is the fault-free reference point.
	FailFrac float64 `json:"fail_frac"`
	// RebuildNs is the proactive-rebuild pacing (-1 = disabled,
	// reconstruct-on-read only).
	RebuildNs int64 `json:"rebuild_ns"`
	// Migrate is whether degraded shards re-home tenants to replicas.
	Migrate bool `json:"migrate"`

	// Availability is error-free completions over offered queries,
	// across all tenants (rejections and errored queries both count
	// against it).
	Availability float64 `json:"availability"`
	Offered      int     `json:"offered"`
	Completed    int     `json:"completed"`
	Errors       int     `json:"errors"`
	// WorstP99Ns is the worst tenant's p99 sojourn.
	WorstP99Ns int64 `json:"worst_p99_ns"`

	// Healing effort: shard-slot cutovers, monitor transitions, and the
	// rebuild walker's page/parity relocations summed over devices.
	Migrations        int    `json:"migrations"`
	HealthTransitions int    `json:"health_transitions"`
	HealthDigest      uint64 `json:"health_digest"`
	RebuildPages      int64  `json:"rebuild_pages"`
	RebuildParity     int64  `json:"rebuild_parity"`

	Report *serve.Report `json:"report"`
}

// HealCurve is the full healing sweep (BENCH_healcurve.json).
type HealCurve struct {
	SF       float64     `json:"sf"`
	WindowNs int64       `json:"window_ns"`
	Points   []HealPoint `json:"points"`
}

// WriteMarkdown renders one row per grid point.
func (hc HealCurve) WriteMarkdown(w io.Writer) {
	var rows [][]string
	for _, pt := range hc.Points {
		fail, rebuild := "never", "off"
		if pt.FailFrac > 0 {
			fail = num(100 * pt.FailFrac)
		}
		if pt.RebuildNs >= 0 {
			rebuild = num(float64(pt.RebuildNs)/1e3) + " µs"
		}
		rows = append(rows, []string{fail, rebuild, fmt.Sprint(pt.Migrate), num(100 * pt.Availability),
			fmt.Sprint(pt.Errors), ms(pt.WorstP99Ns), fmt.Sprint(pt.Migrations), fmt.Sprint(pt.HealthTransitions),
			fmt.Sprint(pt.RebuildPages), fmt.Sprint(pt.RebuildParity)})
	}
	table(w, []string{"die fails at (% of window)", "rebuild every", "migrate", "avail. %", "errors", "worst p99 (ms)",
		"migrations", "health transitions", "rebuilt pages", "rebuilt parity"}, rows...)
}

// healSF is the TPC-H scale factor shard-loaded across the two devices.
const healSF = 0.002

// healRebuildNs are the rebuild pacings swept: -1 = reconstruct-on-read
// only, 500µs = the proactive-rebuild fiber.
var healRebuildNs = []int64{-1, 500_000}

// healSizes is the healing grid: fracs are die-fail times as window
// fractions, qps the total offered load and weblogBytes the sharded
// web-log corpus the wlog tenant greps.
type healSizes struct {
	window      sim.Time
	qps         float64
	fracs       []float64
	weblogBytes int64
}

func (c Config) healSizes() healSizes {
	if c.quick {
		return healSizes{window: 150 * sim.Millisecond, qps: 200, fracs: []float64{0.3}, weblogBytes: 1 << 20}
	}
	return healSizes{window: 250 * sim.Millisecond, qps: 300, fracs: []float64{0.2, 0.6}, weblogBytes: 2 << 20}
}

// RunHealCurve sweeps fail time × rebuild pacing × migration. The
// fault-free reference runs once; every fail fraction then runs the
// four healing modes (neither, rebuild only, migrate only, both).
func RunHealCurve(cfg Config) HealCurve {
	sz := cfg.healSizes()
	out := HealCurve{SF: healSF, WindowNs: int64(sz.window)}
	out.Points = append(out.Points, runHealPoint(sz, 0, -1, false))
	for _, frac := range sz.fracs {
		for _, rb := range healRebuildNs {
			for _, mig := range []bool{false, true} {
				out.Points = append(out.Points, runHealPoint(sz, frac, rb, mig))
			}
		}
	}
	return out
}

// runHealPoint serves one window: tenant "acme" (Q6) spans both
// devices, "bolt" (point lookup) is pinned to the healthy device — the
// clean tenant whose digest must not move — and "wisp" greps the
// sharded web-log corpus through the pattern matcher.
func runHealPoint(sz healSizes, frac float64, rebuildNs int64, migrate bool) HealPoint {
	hcfg := serve.Config{
		SF:           healSF,
		Devices:      2,
		Policy:       "wfq",
		Window:       sz.window,
		Seed:         seed,
		Heal:         true,
		Migrate:      migrate,
		RebuildEvery: sim.Time(rebuildNs),
		WeblogBytes:  sz.weblogBytes,
		Tenants: []serve.TenantConfig{
			{Name: "acme", Workload: "q6", RateQPS: 0.5 * sz.qps, Weight: 2, SLO: 50 * sim.Millisecond},
			{Name: "bolt", Workload: "qpoint", RateQPS: 0.3 * sz.qps, SLO: 25 * sim.Millisecond, Devices: []int{1}},
			{Name: "wisp", Workload: "wlog", RateQPS: 0.2 * sz.qps, SLO: 100 * sim.Millisecond},
		},
	}
	if frac > 0 {
		hcfg.FailAt = sim.Time(frac * float64(sz.window))
		hcfg.FailDevice = 0
		hcfg.FailDie = 1
	}
	s, rep := serveWindow(fmt.Sprintf("healcurve frac %g rebuild %d migrate %v", frac, rebuildNs, migrate), hcfg)

	pt := HealPoint{
		FailFrac:          frac,
		RebuildNs:         rebuildNs,
		Migrate:           migrate,
		HealthTransitions: rep.HealthTransitions,
		HealthDigest:      rep.HealthDigest,
		Report:            rep,
	}
	for _, t := range rep.Tenants {
		pt.Offered += t.Offered
		pt.Completed += t.Completed
		pt.Errors += t.Errors
		pt.Migrations += t.Migrations
		if t.Lat.P99 > pt.WorstP99Ns {
			pt.WorstP99Ns = t.Lat.P99
		}
	}
	if pt.Offered > 0 {
		pt.Availability = float64(pt.Completed-pt.Errors) / float64(pt.Offered)
	}
	for _, sys := range s.MS.Systems {
		rb := sys.Plat.FTL.Rebuild()
		pt.RebuildPages += rb.Pages
		pt.RebuildParity += rb.Parity
	}
	return pt
}
