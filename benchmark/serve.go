package main

import (
	"fmt"

	"biscuit"
	"biscuit/internal/serve"
	"biscuit/internal/sim"
	"biscuit/internal/telemetry"
	"biscuit/internal/trace"
)

// Both serving workloads are open loop: every tenant's arrivals are
// laid out in sim time before the window starts, at a fixed spacing of
// 1/rate, so the generator cannot run late and a slow server receives
// the same load as a fast one. Sojourn is measured from the scheduled
// arrival. The spacing is fixed rather than Poisson because a window
// holds only about 200 queries: Poisson counts move the tenant mix, and
// with it every per-op figure, by 6 to 10 % from seed to seed.

var serveWindow = workload{
	name: "serve_window",
	why:  "many short concurrent queries from three tenants on a 2-device array: the sim park/resume handoff, serve dispatch and per-platform construction dominate; matcher and decode are small",
	build: func(c *ctx) state {
		return buildWindows(c, "serve_window", c.sc.rates[1], func(rate float64, _ bool) serve.Config {
			return serve.Config{
				SF: c.sc.serveSF, Devices: 2, Policy: "wfq", Window: c.sc.serveWindow, Seed: c.seed,
				Tenants: []serve.TenantConfig{
					{Name: "acme", Workload: "q6", RateQPS: 0.5 * rate, Weight: 2, SLO: 50 * sim.Millisecond, Deterministic: true},
					{Name: "bolt", Workload: "q1", RateQPS: 0.1 * rate, SLO: 100 * sim.Millisecond, Deterministic: true},
					{Name: "cato", Workload: "qpoint", RateQPS: 0.4 * rate, SLO: 25 * sim.Millisecond, Deterministic: true},
				},
			}
		})
	},
}

var healWindow = workload{
	name: "heal_window",
	why:  "the healcurve both-on point: a die dies 20 % into the window, so the read stack runs degraded reads, RAIN reconstruct and rebuild writes racing foreground reads, health and telemetry hooks live",
	build: func(c *ctx) state {
		return buildWindows(c, "heal_window", c.sc.healQPS, func(rate float64, fail bool) serve.Config {
			cfg := serve.Config{
				SF: c.sc.serveSF, Devices: 2, Policy: "wfq", Window: c.sc.healWindow, Seed: c.seed,
				Heal: true, Migrate: true, RebuildEvery: 500 * sim.Microsecond, WeblogBytes: c.sc.healWeblog,
				Tenants: []serve.TenantConfig{
					{Name: "acme", Workload: "q6", RateQPS: 0.5 * rate, Weight: 2, SLO: 50 * sim.Millisecond, Deterministic: true},
					{Name: "bolt", Workload: "qpoint", RateQPS: 0.3 * rate, SLO: 25 * sim.Millisecond, Devices: []int{1}, Deterministic: true},
					{Name: "wisp", Workload: "wlog", RateQPS: 0.2 * rate, SLO: 100 * sim.Millisecond, Deterministic: true},
				},
			}
			if fail {
				cfg.FailAt = c.sc.healWindow / 5
				cfg.FailDevice, cfg.FailDie = 0, 1
			}
			return cfg
		})
	},
}

// windowState drives both serving workloads. A serve.Server is
// consumed by its Run, so every window builds a fresh one; that build
// is set-up, timed apart from the window.
type windowState struct {
	name    string
	heal    bool // heal_window: die failure, telemetry on, fault-free reference
	refRate float64
	base    biscuit.Config // every device's platform
	cfg     func(rate float64, fail bool) serve.Config
	next    *serve.Server // built by set-up, run by the first batch

	windows []*serve.Report // reference-rate windows, untraced in order
	counted *serve.Report
	tracer  *trace.Tracer // the counted window's sim trace
	// others are the reference's windows by name: serve_window's
	// off-reference rates, heal_window's fault-free run.
	others map[string]*serve.Report
}

func buildWindows(c *ctx, name string, refRate float64, cfg func(rate float64, fail bool) serve.Config) *windowState {
	st := &windowState{name: name, heal: name == "heal_window", refRate: refRate, base: c.sc.serveConfig(), cfg: cfg, others: map[string]*serve.Report{}}
	c.rec.do("setup.build", func() { st.next = st.newServer(refRate, true) })
	return st
}

func (st *windowState) newServer(rate float64, fail bool) *serve.Server {
	cfg := st.cfg(rate, fail)
	base := st.base
	cfg.Base = &base
	s, err := serve.New(cfg)
	if err != nil {
		panic(fmt.Sprintf("%s: serve.New: %v", st.name, err))
	}
	return s
}

// run serves one window on s and returns its report with the measured
// batch. Ops are offered queries; an op fails when it errored or was
// refused. A missed deadline is a latency outcome, reported apart.
func (st *windowState) run(c *ctx, s *serve.Server, telemetryOn bool, obs *observer) (*serve.Report, batchOut) {
	if telemetryOn {
		s.EnableTelemetry(telemetry.DefaultInterval)
	}
	var before counts
	if obs != nil {
		obs.attachServer(s)
		before = snapshot(s.MS.Systems)
	}
	var rep *serve.Report
	var tr *trace.Tracer
	if obs != nil {
		tr = obs.tr
	}
	root := tr.Begin(tr.Track(rootTrack), rootSpan)
	m := startMeter()
	c.rec.do("op.window", func() { rep = s.Run() })
	o := batchOut{measured: m.stop(), simNs: rep.DurationNs}
	root.End()
	if obs != nil {
		o.sys = s.MS.Systems
		o.counts = snapshot(s.MS.Systems).minus(before)
	}
	for _, t := range rep.Tenants {
		o.ops += t.Offered
		o.failed += t.Errors + t.Rejected
	}
	return rep, o
}

func (st *windowState) reference(c *ctx) {
	if st.heal {
		st.others["fault_free"], _ = st.run(c, st.newServer(st.refRate, false), true, nil)
	} else {
		for _, rate := range []float64{c.sc.rates[0], c.sc.rates[2]} {
			st.others[rateTag(rate)], _ = st.run(c, st.newServer(rate, true), false, nil)
		}
	}
}

func rateTag(rate float64) string { return fmt.Sprintf("r%g", rate) }

func (st *windowState) batch(c *ctx, obs *observer) batchOut {
	s := st.next
	st.next = nil
	var setup *measured
	if s == nil {
		m := startMeter()
		c.rec.do("setup.build", func() { s = st.newServer(st.refRate, true) })
		got := m.stop()
		setup = &got
	}
	rep, o := st.run(c, s, st.heal, obs)
	o.setup = setup
	if obs != nil {
		st.counted, st.tracer = rep, obs.tr
	} else {
		st.windows = append(st.windows, rep)
	}
	return o
}

// worstP95 is the slowest tenant's p95 sojourn in sim ms, with the
// smallest tenant sample behind it.
func worstP95(rep *serve.Report) (ms float64, n int) {
	n = int(rep.Tenants[0].Lat.Count)
	for _, t := range rep.Tenants {
		ms = max(ms, float64(t.Lat.P95)/1e6)
		n = min(n, int(t.Lat.Count))
	}
	return ms, n
}

// sustained reports whether a window met every tenant's latency limit
// at p95 with nothing refused, nothing failed and the backlog drained:
// the server finished within one limit of the window closing.
func sustained(rep *serve.Report, window sim.Time) bool {
	var slack int64
	for _, t := range rep.Tenants {
		if t.Rejected > 0 || t.Errors > 0 || t.Lat.P95 > t.SLONs {
			return false
		}
		slack = max(slack, t.SLONs)
	}
	return rep.DurationNs <= int64(window)+slack
}

func (st *windowState) report(c *ctx, r *result, untraced []batchOut, counted *batchOut) {
	all := append([]*serve.Report(nil), st.windows...)
	if st.counted != nil {
		all = append(all, st.counted)
	}
	first := all[0]
	want := first.DispatchDigest
	if c.corruptRef {
		want++
	}
	unstable, leaked := 0, 0
	for _, rep := range all {
		if rep.DispatchDigest != want || rep.HealthDigest != first.HealthDigest || rep.DurationNs != first.DurationNs {
			unstable++
		}
		for i, t := range rep.Tenants {
			if t.RowDigest != first.Tenants[i].RowDigest {
				unstable++
			}
		}
	}
	for _, rep := range st.others {
		all = append(all, rep)
	}
	for _, rep := range all {
		for _, t := range rep.Tenants {
			if t.Offered != t.Admitted+t.Rejected || t.Admitted != t.Completed {
				leaked++
			}
		}
	}
	r.check(st.name+".windows_agree", unstable == 0, "%d digests differ between windows of one seed", unstable)
	r.check(st.name+".conservation", leaked == 0, "%d tenants break offered = admitted + rejected or admitted = completed", leaked)

	for _, t := range first.Tenants {
		r.pin(t.Name+".row_digest", "%016x", t.RowDigest)
	}
	r.pinSim("dispatch_digest", "%016x", first.DispatchDigest)

	var offered, misses, good int
	for _, t := range first.Tenants {
		offered += t.Offered
		misses += t.DeadlineMisses
		good += t.Completed - t.Errors - t.DeadlineMisses
	}
	p95, n := worstP95(first)
	r.put("sim_p95_ms", p95, n)
	r.put("sim_goodput_qps", float64(good)/sim.Time(first.DurationNs).Seconds(), offered)
	r.put("failed_ops_share", float64(untraced[0].failed+misses)/float64(offered), offered)

	if st.heal {
		clean := st.others["fault_free"].Tenants[1]
		got := first.Tenants[1]
		r.check("heal_window.clean_tenant_unmoved", got.RowDigest == clean.RowDigest && got.Offered == clean.Offered,
			"tenant %s: digest %016x over %d queries under the die failure, %016x over %d fault-free", got.Name, got.RowDigest, got.Offered, clean.RowDigest, clean.Offered)
		r.pinSim("health_digest", "%016x", first.HealthDigest)
	} else {
		byRate := map[float64]*serve.Report{c.sc.rates[1]: first}
		for _, rate := range []float64{c.sc.rates[0], c.sc.rates[2]} {
			byRate[rate] = st.others[rateTag(rate)]
		}
		maxOK := 0.0
		for _, rate := range c.sc.rates {
			p95, n := worstP95(byRate[rate])
			r.put("serve.p95_ms_"+rateTag(rate), p95, n)
			if sustained(byRate[rate], c.sc.serveWindow) {
				maxOK = rate
			}
		}
		r.put("sim_max_ok_qps", maxOK, len(c.sc.rates))
	}

	if counted == nil {
		return
	}
	rep := st.counted
	var rejected, errors, migrations int
	for _, t := range rep.Tenants {
		rejected += t.Rejected
		errors += t.Errors
		migrations += t.Migrations
	}
	r.put("serve.offered", float64(counted.ops), 1)
	r.put("serve.rejected", float64(rejected), 1)
	r.put("serve.deadline_misses", float64(misses), 1)
	r.put("serve.errors", float64(errors), 1)
	r.put("serve.migrations", float64(migrations), 1)
	r.put("health.transitions", float64(rep.HealthTransitions), 1)
	r.put("telemetry.series", float64(len(rep.Telemetry)), 1)
	if st.heal {
		// The same window with the sampler off: what observing costs.
		_, o := st.run(c, st.newServer(st.refRate, true), false, nil)
		with := r.metrics["ref_ms_per_op"].Value
		r.put("telemetry.overhead_pct", 100*(with/(o.refMs()/float64(o.ops))-1), 1)
	} else {
		r.putCrit("window", st.tracer)
		serveKernels(c, r)
	}
}
