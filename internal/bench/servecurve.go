package bench

import (
	"fmt"
	"io"

	"biscuit/internal/serve"
	"biscuit/internal/sim"
	"biscuit/internal/telemetry"
)

// ServePoint is one cell of the serving-curve grid: a full multi-tenant
// serving window at a given array width, scheduling policy and total
// offered load. The embedded report carries per-tenant p50/p95/p99
// sojourn, throughput, deadline misses, FNV row digests and per-series
// telemetry summaries (digest, min/mean/max) — all deterministic per
// seed, so benchgate compares every field exactly.
type ServePoint struct {
	Devices    int           `json:"devices"`
	Policy     string        `json:"policy"`
	OfferedQPS float64       `json:"offered_qps"`
	Report     *serve.Report `json:"report"`
}

// ServeCurve is the multi-tenant array serving experiment: throughput
// and tail latency per tenant vs offered load × device count ×
// scheduling policy (BENCH_servecurve.json).
type ServeCurve struct {
	SF       float64      `json:"sf"`
	WindowNs int64        `json:"window_ns"`
	Points   []ServePoint `json:"points"`
}

// WriteMarkdown renders one row per grid point, two columns per tenant.
func (sc ServeCurve) WriteMarkdown(w io.Writer) {
	header := []string{"devices", "policy", "offered qps", "served qps", "rejected"}
	for _, t := range sc.Points[0].Report.Tenants {
		header = append(header, t.Name+" p50 / p99 (ms)", t.Name+" misses")
	}
	var rows [][]string
	for _, pt := range sc.Points {
		r := pt.Report
		row := []string{fmt.Sprint(pt.Devices), pt.Policy, num(pt.OfferedQPS), num(r.AggThroughputQPS), fmt.Sprint(r.Rejected)}
		for _, t := range r.Tenants {
			row = append(row, ms(t.Lat.P50)+" / "+ms(t.Lat.P99), fmt.Sprint(t.DeadlineMisses))
		}
		rows = append(rows, row)
	}
	table(w, header, rows...)
}

// serveSF is the TPC-H scale factor shard-loaded across the array.
const serveSF = 0.002

// serveSizes is the serving-curve grid: each device count is swept over
// both scheduling policies at each total offered load (qps).
type serveSizes struct {
	window  sim.Time
	loads   []float64
	devices []int
}

func (c Config) serveSizes() serveSizes {
	if c.quick {
		return serveSizes{window: 150 * sim.Millisecond, loads: []float64{300}, devices: []int{1, 2}}
	}
	return serveSizes{window: 250 * sim.Millisecond, loads: []float64{150, 700}, devices: []int{1, 2, 4}}
}

// RunServeCurve sweeps the serving grid. Each point builds a fresh
// shard-loaded array and serves one window with two tenants: "acme"
// (TPC-H Q6, weight 2, 50ms SLO) and "bolt" (point lookup, weight 1,
// 25ms SLO). The low load point sits inside array capacity; the high
// one overloads it so admission control and the policies' differing
// miss profiles show in the curve.
func RunServeCurve(cfg Config) ServeCurve {
	sz := cfg.serveSizes()
	out := ServeCurve{SF: serveSF, WindowNs: int64(sz.window)}
	for _, devices := range sz.devices {
		for _, policy := range []string{"wfq", "edf"} {
			for _, qps := range sz.loads {
				out.Points = append(out.Points, ServePoint{
					Devices:    devices,
					Policy:     policy,
					OfferedQPS: qps,
					Report:     runServePoint(sz, devices, policy, qps),
				})
			}
		}
	}
	return out
}

func runServePoint(sz serveSizes, devices int, policy string, qps float64) *serve.Report {
	_, rep := serveWindow(fmt.Sprintf("servecurve %d devices %s %g qps", devices, policy, qps), serve.Config{
		SF:      serveSF,
		Devices: devices,
		Policy:  policy,
		Window:  sz.window,
		Seed:    seed,
		Tenants: []serve.TenantConfig{
			{Name: "acme", Workload: "q6", RateQPS: 0.4 * qps, Weight: 2, SLO: 50 * sim.Millisecond},
			{Name: "bolt", Workload: "qpoint", RateQPS: 0.6 * qps, SLO: 25 * sim.Millisecond},
		},
	})
	return rep
}

// serveWindow builds the array cfg describes and serves one window on
// it, sampling the gauge registries throughout so the report carries
// per-series digests and min/mean/max — telemetry drift (a gauge that
// stops moving, a changed sampling cadence) then fails benchgate
// exactly like a row-digest change would. Each drive of the array goes
// through OnSystem like a newSystemWith platform. what names the point
// in the panic on a bad cfg.
func serveWindow(what string, cfg serve.Config) (*serve.Server, *serve.Report) {
	s, err := serve.New(cfg)
	must(what, err)
	if OnSystem != nil {
		for _, sys := range s.MS.Systems {
			OnSystem(sys)
		}
	}
	s.EnableTelemetry(telemetry.DefaultInterval)
	return s, s.Run()
}
