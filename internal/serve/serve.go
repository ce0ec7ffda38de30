// Package serve is the host-side serving layer over an SSD array: it
// shards the TPC-H catalog across the devices of a biscuit.MultiSystem
// (the paper's Fig. 1(b) scale-up organization), accepts queries from
// multiple tenants via open-loop arrival processes, and schedules them
// through admission control plus a pluggable policy — weighted fair
// queueing over per-tenant virtual time, or earliest-deadline-first
// against per-tenant SLOs.
//
// One logical query scatters over the tenant's device subset (one
// simulated host thread per shard), runs the workload's per-shard
// partial plan — NDP where the offload planner accepts, with the
// per-shard NDP→Conv fault fallback degrading only that shard — and
// gathers/merges partial aggregates on the host (db.ShardedAggPlan).
//
// Everything is deterministic per seed: arrivals pre-draw from
// biscuit.SeededRand, the scheduler breaks ties by tenant index, and
// per-tenant FNV row digests plus a dispatch-order digest pin the whole
// serving window's output for the bench gate.
package serve

import (
	"fmt"
	"math/rand"
	"slices"

	"biscuit"
	"biscuit/internal/db"
	"biscuit/internal/health"
	"biscuit/internal/sim"
	"biscuit/internal/stats"
	"biscuit/internal/telemetry"
	"biscuit/internal/tpch"
	"biscuit/internal/trace"
	"biscuit/internal/weblog"
)

// DefaultSLO is the per-query deadline when a tenant does not set one.
const DefaultSLO = 250 * sim.Millisecond

// DefaultQueueCap bounds each tenant's admission queue.
const DefaultQueueCap = 32

// maxInFlightPerDevice bounds concurrently dispatched queries per
// device of the array.
const maxInFlightPerDevice = 2

// TenantConfig describes one tenant of the serving window.
type TenantConfig struct {
	// Name labels the tenant's counters ("tenant.<name>."), histograms
	// and trace track ("tenant/<name>").
	Name string
	// Workload names a built-in query plan: "q6", "q1" or "qpoint".
	Workload string
	// RateQPS is the open-loop offered arrival rate in queries per
	// simulated second.
	RateQPS float64
	// Deterministic spaces arrivals exactly 1/RateQPS apart instead of
	// drawing Poisson interarrivals.
	Deterministic bool
	// Weight is the WFQ share (default 1).
	Weight int
	// SLO is the per-query deadline measured from arrival (default
	// DefaultSLO). EDF schedules against it; both policies count
	// completions past it as deadline misses.
	SLO sim.Time
	// QueueCap bounds the admission queue; arrivals beyond it are
	// rejected (default DefaultQueueCap).
	QueueCap int
	// Devices pins the tenant to a shard subset (default: all devices).
	// A tenant's queries touch only its shards, so a fault plan on one
	// device degrades exactly the tenants placed on it.
	Devices []int
}

// Config describes one serving window.
type Config struct {
	// SF is the TPC-H scale factor shard-loaded across the array.
	SF float64
	// Devices is the array width.
	Devices int
	// Tenants is the tenant mix (at least one).
	Tenants []TenantConfig
	// Policy selects the scheduler: "wfq" (default) or "edf".
	Policy string
	// Window is the arrival window; the server drains all admitted
	// queries after it closes.
	Window sim.Time
	// Seed drives arrivals, data generation and per-shard planner
	// sampling.
	Seed int64
	// Base optionally overrides the device/platform config (default
	// biscuit.DefaultConfig with a small NAND array).
	Base *biscuit.Config
	// PerDevice optionally rewrites the config per device — fault plans
	// on a shard subset in particular.
	PerDevice func(i int, cfg biscuit.Config) biscuit.Config

	// Heal enables the self-healing stack: a health.Monitor classifying
	// every device from its live gauges and counters, plus patrol-scrub
	// and proactive-rebuild fibers on each device.
	Heal bool
	// Migrate (requires Heal and at least two devices) loads one-hop
	// fact-table replicas at build time and re-homes tenants' shard
	// slots to the successor device when the monitor marks a device
	// Degraded or worse.
	Migrate bool
	// RebuildEvery paces the proactive-rebuild fiber under Heal: 0
	// selects the 500µs default, < 0 disables proactive rebuild so dead
	// dies are repaired only by reconstruct-on-read and scrub — the
	// healcurve bench's degraded baseline.
	RebuildEvery sim.Time
	// WeblogBytes, when > 0, additionally shard-loads a web-log corpus
	// of this total size so tenants may run the "wlog" workload.
	WeblogBytes int64
	// FailAt, when > 0, kills die FailDie of device FailDevice that
	// long after the serving window starts — the fault the healing
	// stack is measured against.
	FailAt              sim.Time
	FailDevice, FailDie int
}

// Server is a built array with shard-loaded data, ready to Run one
// serving window.
type Server struct {
	Cfg    Config
	MS     *biscuit.MultiSystem
	DBs    []*db.Database
	Datas  []*tpch.Data
	Gauges *stats.Gauges

	// Monitor is the device-health classifier, non-nil under Cfg.Heal.
	Monitor *health.Monitor

	replicas []*tpch.Data // per-device replica views (Cfg.Migrate)

	tr      *trace.Tracer
	schedTk trace.TrackID
	tenants []*tenant
	policy  policy
	sampler *telemetry.Sampler

	// scheduler-level gauges (telemetry time series)
	gInflight *stats.Gauge
	gRejected *stats.Gauge
	gVT       *stats.Gauge // WFQ global virtual time ×1e6 (nil under EDF)

	// dispatcher state
	wake      *sim.Event
	inFlight  int
	completed int
	rejected  int
	total     int
	virt      float64 // WFQ global virtual time

	dispatchHash stats.Digest
	dispatchSeq  []string // per-dispatch "tenant:seq", for determinism tests

	migrations []MigrationRecord

	// rands are the planner-probe sources no shard holds: a shard takes
	// one and re-seeds it, and gives it back when it returns. Shards of
	// one query and of two in-flight queries interleave, so each holds
	// its own.
	rands []*rand.Rand
}

// MigrationRecord pins one shard-slot cutover: which tenant slot moved
// where, at what sim time, and after how many dispatches — the last
// field is what the determinism tests compare across seeds and runs.
type MigrationRecord struct {
	Tenant   string `json:"tenant"`
	Shard    int    `json:"shard"` // slot index within the tenant's device list
	FromDev  int    `json:"from_dev"`
	ToDev    int    `json:"to_dev"`
	AtNs     int64  `json:"at_ns"`
	AfterSeq int    `json:"after_seq"` // dispatches issued before the cutover
}

type request struct {
	t        *tenant
	seq      int
	arrive   sim.Time
	deadline sim.Time
	span     trace.Span
}

type tenant struct {
	cfg      TenantConfig
	idx      int
	wl       *workload
	arrivals []sim.Time

	queue []*request // admitted, FIFO per tenant
	vt    float64    // WFQ per-tenant virtual time

	// Self-healing state: shardDev maps each shard slot to the device
	// currently serving it (starts as a copy of devices); shardRepl
	// marks slots serving from the successor's replica tables after a
	// migration. hold gates the tenant out of scheduling while pending
	// slots wait for in-flight queries to drain before cutover.
	shardDev   []int
	shardRepl  []bool
	pending    []int
	hold       bool
	inflight   int
	migrations int
	errors     int

	lat      *stats.Histogram
	gBacklog *stats.Gauge
	track    trace.TrackID
	rows     stats.Digest

	admitted, rejected, completed, misses int
}

// New builds the array and shard-loads the catalog. The returned
// server holds fresh stats registries; call SetTracer before Run to
// record a trace.
func New(cfg Config) (*Server, error) {
	if cfg.Devices < 1 {
		return nil, fmt.Errorf("serve: need at least one device, got %d", cfg.Devices)
	}
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("serve: need at least one tenant")
	}
	base := defaultBase()
	if cfg.Base != nil {
		base = *cfg.Base
	}
	pol, err := newPolicy(cfg.Policy)
	if err != nil {
		return nil, err
	}
	if cfg.Migrate && !cfg.Heal {
		return nil, fmt.Errorf("serve: Migrate requires Heal")
	}
	if cfg.Migrate && cfg.Devices < 2 {
		return nil, fmt.Errorf("serve: Migrate needs at least two devices")
	}
	per := cfg.PerDevice
	if cfg.FailAt > 0 {
		if cfg.FailDevice < 0 || cfg.FailDevice >= cfg.Devices {
			return nil, fmt.Errorf("serve: FailDevice %d of %d", cfg.FailDevice, cfg.Devices)
		}
		if cfg.FailDie < 0 || cfg.FailDie >= base.NAND.Dies() {
			return nil, fmt.Errorf("serve: FailDie %d of %d", cfg.FailDie, base.NAND.Dies())
		}
		// Arm the fault plan so the device builds an injector, but push
		// the plan's own trigger past any horizon: the die dies when the
		// window's diefail thread calls Injector.FailDie, not before.
		inner := per
		per = func(i int, c biscuit.Config) biscuit.Config {
			if inner != nil {
				c = inner(i, c)
			}
			if i == cfg.FailDevice {
				c.Fault.DieFailMask |= 1 << uint(cfg.FailDie)
				c.Fault.DieFailAfter = sim.Time(1) << 60
			}
			return c
		}
	}
	s := &Server{
		Cfg:    cfg,
		MS:     biscuit.NewMultiSystemConfigs(base, cfg.Devices, per),
		Gauges: stats.NewGauges(),
		policy: pol,
	}
	s.gInflight = s.Gauges.G("serve.inflight")
	s.gRejected = s.Gauges.G("serve.rejected")
	if pol.name() == "wfq" {
		s.gVT = s.Gauges.G("serve.wfq.vt")
	}
	s.DBs = make([]*db.Database, cfg.Devices)
	for i, sys := range s.MS.Systems {
		s.DBs[i] = db.Open(sys)
	}
	var loadErr error
	s.MS.Run(func(h *biscuit.MultiHost) {
		hosts := make([]*biscuit.Host, cfg.Devices)
		for i := range hosts {
			hosts[i] = h.Unit(i)
		}
		g := tpch.Gen{SF: cfg.SF}
		s.Datas, s.replicas, loadErr = g.LoadShards(hosts, s.DBs, biscuit.SeededRand(cfg.Seed), cfg.Migrate)
		if loadErr == nil && cfg.WeblogBytes > 0 {
			_, _, loadErr = weblog.GenerateShards(hosts, cfg.WeblogBytes,
				wlogNeedle, 50, biscuit.SeededRand(cfg.Seed+77), cfg.Migrate)
		}
	})
	if loadErr != nil {
		return nil, loadErr
	}
	if err := s.buildTenants(); err != nil {
		return nil, err
	}
	if cfg.Heal {
		s.buildMonitor()
	}
	return s, nil
}

// buildMonitor attaches every device's gauges and RAIN statistics to a fresh
// health monitor and routes its transitions into the scheduler.
func (s *Server) buildMonitor() {
	s.Monitor = health.NewMonitor(s.MS.Env)
	for i, sys := range s.MS.Systems {
		arr := sys.Plat.Array
		dies := sys.Plat.Cfg.NAND.Dies()
		s.Monitor.Attach(fmt.Sprintf("ssd%d", i), health.Probe{
			Gauges: sys.Plat.Gauges,
			Rain:   sys.Plat.FTL.Rain,
			DeadDies: func() int {
				n := 0
				for d := 0; d < dies; d++ {
					if arr.DieDead(d) {
						n++
					}
				}
				return n
			},
		})
	}
	s.Monitor.OnTransition(s.onHealth)
}

// onHealth runs inside the monitor's evaluation (ultimately a gauge
// pre-mutation hook), so it is pure bookkeeping plus event firing. A
// device reaching Degraded marks every tenant shard slot it serves for
// migration; the dispatcher performs the cutover once the tenant's
// in-flight queries drain.
func (s *Server) onHealth(dev int, from, to health.State) {
	if to < health.Degraded || !s.Cfg.Migrate {
		return
	}
	for _, t := range s.tenants {
		marked := false
		for k, d := range t.shardDev {
			if d == dev && !t.shardRepl[k] && !slices.Contains(t.pending, k) {
				t.pending = append(t.pending, k)
				marked = true
			}
		}
		if marked {
			t.hold = true
		}
	}
	if s.wake != nil {
		s.wake.Fire()
	}
}

func defaultBase() biscuit.Config {
	cfg := biscuit.DefaultConfig()
	cfg.NAND.BlocksPerDie = 256
	cfg.NAND.PagesPerBlock = 64
	return cfg
}

func (s *Server) buildTenants() error {
	for ti := range s.Cfg.Tenants {
		tc := s.Cfg.Tenants[ti]
		if tc.Name == "" {
			return fmt.Errorf("serve: tenant %d has no name", ti)
		}
		if tc.RateQPS <= 0 {
			return fmt.Errorf("serve: tenant %s needs RateQPS > 0", tc.Name)
		}
		if tc.Weight <= 0 {
			tc.Weight = 1
		}
		if tc.SLO <= 0 {
			tc.SLO = DefaultSLO
		}
		if tc.QueueCap <= 0 {
			tc.QueueCap = DefaultQueueCap
		}
		devs := tc.Devices
		if len(devs) == 0 {
			devs = make([]int, s.Cfg.Devices)
			for i := range devs {
				devs[i] = i
			}
		}
		for _, d := range devs {
			if d < 0 || d >= s.Cfg.Devices {
				return fmt.Errorf("serve: tenant %s pinned to device %d of %d", tc.Name, d, s.Cfg.Devices)
			}
		}
		wl, err := newWorkload(tc.Workload, s.Datas[0])
		if err != nil {
			return fmt.Errorf("serve: tenant %s: %w", tc.Name, err)
		}
		if tc.Workload == "wlog" && s.Cfg.WeblogBytes <= 0 {
			return fmt.Errorf("serve: tenant %s runs wlog but Config.WeblogBytes is unset", tc.Name)
		}
		t := &tenant{
			cfg:      tc,
			idx:      ti,
			wl:       wl,
			lat:      stats.NewHistogram(),
			gBacklog: s.Gauges.G("tenant." + tc.Name + ".backlog"),
		}
		t.shardDev = append([]int(nil), devs...)
		t.shardRepl = make([]bool, len(devs))
		t.arrivals = arrivals(tc.RateQPS, tc.Deterministic, s.Cfg.Window, tenantRand(s.Cfg.Seed, ti))
		s.tenants = append(s.tenants, t)
		s.total += len(t.arrivals)
	}
	return nil
}

// arrivals pre-draws the arrival times of an open-loop process at
// rateQPS within [0, window): Poisson interarrivals, or exactly
// 1/rateQPS apart when deterministic. Open-loop means the offered
// process is independent of service — drawing every arrival up front
// both enforces that and makes the offered load a pure function of
// (rate, window, rng), so whole windows pin in determinism tests.
func arrivals(rateQPS float64, deterministic bool, window sim.Time, rng *rand.Rand) []sim.Time {
	var out []sim.Time
	period := 1.0 / rateQPS // seconds
	at := 0.0
	for {
		if deterministic {
			at += period
		} else {
			at += rng.ExpFloat64() * period
		}
		t := sim.FromSeconds(at)
		if t >= window {
			return out
		}
		out = append(out, t)
	}
}

// tenantRand derives an independent deterministic stream per tenant.
func tenantRand(seed int64, idx int) *rand.Rand {
	return biscuit.SeededRand(seed*1000003 + int64(idx+1)*7919)
}

// SetTracer records the serving window into tr: every device traces
// under its "ssd<i>/" namespace, each tenant gets a "tenant/<name>"
// track of arrival→completion spans, and the scheduler dispatches on
// "serve/sched" — one Perfetto export, all tenants interleaved.
func (s *Server) SetTracer(tr *trace.Tracer) {
	s.tr = tr
	s.MS.SetTracer(tr)
	s.schedTk = tr.Track("serve/sched")
	for _, t := range s.tenants {
		t.track = tr.Track("tenant/" + t.cfg.Name)
	}
	if s.Monitor != nil {
		s.Monitor.SetTracer(tr)
	}
}

// EnableTelemetry samples every gauge registry of the serving stack —
// each device platform under its "ssd<i>." namespace plus the serving
// layer's own (tenant backlogs, in-flight, rejections, WFQ virtual
// time) — at the given sim-time interval (<= 0 selects the default).
// Call before Run; the report then carries per-series summaries, and a
// tracer set via SetTracer additionally gains one Perfetto counter
// track per series.
func (s *Server) EnableTelemetry(interval sim.Time) {
	s.sampler = telemetry.NewSampler(s.MS.Env, interval)
	for i, sys := range s.MS.Systems {
		s.sampler.Attach(sys.Plat.Gauges, fmt.Sprintf("ssd%d.", i))
	}
	s.sampler.Attach(s.Gauges, "")
}

// Run executes the serving window to drain and reports it. Run
// consumes the server: build a fresh one per window.
func (s *Server) Run() *Report {
	if s.Cfg.Heal {
		rebuild := s.Cfg.RebuildEvery
		if rebuild == 0 {
			rebuild = 500 * sim.Microsecond
		}
		for _, sys := range s.MS.Systems {
			sys.Plat.StartScrub()
			if rebuild > 0 {
				sys.Plat.StartRebuild(rebuild)
			}
		}
	}
	took := s.MS.Run(func(h *biscuit.MultiHost) {
		s.wake = h.Proc().Env().NewEvent()
		if s.Cfg.FailAt > 0 {
			s.spawnDieFail(h)
		}
		for _, t := range s.tenants {
			s.spawnArrivals(h, t)
		}
		s.dispatchLoop(h)
		// Release the maintenance fibers inside the program so the env
		// can drain; each notices within one interval of its pacing.
		for _, sys := range s.MS.Systems {
			sys.Plat.StopScrub()
			sys.Plat.StopRebuild()
		}
	})
	if s.Monitor != nil {
		s.Monitor.Advance()
	}
	s.sampler.Flush()
	s.sampler.ExportCounters(s.tr)
	return s.report(took)
}

// spawnDieFail kills the configured die partway into the serving
// window — the failure the healing stack is measured against.
func (s *Server) spawnDieFail(h *biscuit.MultiHost) {
	h.Go("diefail", func(h2 *biscuit.MultiHost) {
		h2.Proc().Sleep(s.Cfg.FailAt)
		s.MS.Systems[s.Cfg.FailDevice].Plat.Inj.FailDie(s.Cfg.FailDie)
		s.tr.Instant(s.schedTk, "diefail").
			Arg("dev", int64(s.Cfg.FailDevice)).Arg("die", int64(s.Cfg.FailDie))
	})
}

// spawnArrivals runs one tenant's open-loop arrival process: sleep to
// each pre-drawn arrival, admit or reject, and nudge the dispatcher.
func (s *Server) spawnArrivals(h *biscuit.MultiHost, t *tenant) {
	h.Go("arrive."+t.cfg.Name, func(h2 *biscuit.MultiHost) {
		p := h2.Proc()
		for seq, at := range t.arrivals {
			if d := at - p.Now(); d > 0 {
				p.Sleep(d)
			}
			if len(t.queue) >= t.cfg.QueueCap {
				t.rejected++
				s.rejected++
				s.gRejected.Add(1)
				s.tr.Instant(t.track, "reject").Arg("seq", int64(seq))
			} else {
				req := &request{t: t, seq: seq, arrive: p.Now(), deadline: p.Now() + t.cfg.SLO}
				req.span = s.tr.BeginAsync(t.track, t.wl.name).Arg("seq", int64(seq))
				t.queue = append(t.queue, req)
				t.gBacklog.Add(1)
				t.admitted++
			}
			s.wake.Fire()
		}
	})
}

// dispatchLoop is the scheduler: while work remains, fill service
// slots by policy, then sleep until an arrival or completion.
func (s *Server) dispatchLoop(h *biscuit.MultiHost) {
	p := h.Proc()
	for s.completed+s.rejected < s.total {
		for _, t := range s.tenants {
			if t.hold && t.inflight == 0 {
				s.cutover(p, t)
			}
		}
		for s.inFlight < maxInFlightPerDevice*s.Cfg.Devices {
			ti := checkedPick(s.policy, s)
			if ti < 0 {
				break
			}
			t := s.tenants[ti]
			req := t.queue[0]
			t.queue = t.queue[1:]
			t.gBacklog.Add(-1)
			s.dispatch(h, req)
		}
		if s.completed+s.rejected >= s.total {
			break
		}
		s.wake = p.Env().NewEvent()
		p.Wait(s.wake)
	}
}

// cutover re-homes a drained tenant's pending shard slots to each
// slot's successor device, which holds the one-hop replica of the
// slot's fact partition. Nothing of the tenant's is in flight, so the
// switch is the NDP→Conv batch-boundary fallback primitive applied at
// query granularity: every future query of the slot runs whole on the
// replica, and no query ever straddles both copies.
func (s *Server) cutover(p *sim.Proc, t *tenant) {
	for _, k := range t.pending {
		if t.shardRepl[k] {
			continue
		}
		from := t.shardDev[k]
		to := (from + 1) % s.Cfg.Devices
		if s.Monitor != nil && s.Monitor.State(to) >= health.Degraded {
			continue // the successor is no better off; stay put
		}
		t.shardDev[k] = to
		t.shardRepl[k] = true
		t.migrations++
		s.migrations = append(s.migrations, MigrationRecord{
			Tenant: t.cfg.Name, Shard: k, FromDev: from, ToDev: to,
			AtNs: int64(p.Now()), AfterSeq: len(s.dispatchSeq),
		})
		s.tr.Instant(t.track, "migrate").Arg("shard", int64(k)).Arg("to", int64(to))
	}
	t.pending = nil
	t.hold = false
}

// dispatch starts one admitted query on its own host thread.
func (s *Server) dispatch(h *biscuit.MultiHost, req *request) {
	t := req.t
	s.inFlight++
	t.inflight++
	s.gInflight.Add(1)
	tag := fmt.Sprintf("%s:%d", t.cfg.Name, req.seq)
	s.dispatchHash.AddRecord(tag)
	s.dispatchSeq = append(s.dispatchSeq, tag)
	s.tr.Instant(s.schedTk, "dispatch").ArgStr("tenant", t.cfg.Name).Arg("seq", int64(req.seq))
	h.Go(fmt.Sprintf("q.%s.%d", t.cfg.Name, req.seq), func(h2 *biscuit.MultiHost) {
		rows, err := s.runQuery(h2, req)
		now := h2.Now()
		t.completed++
		s.completed++
		if err != nil {
			t.errors++
			t.rows.AddRecord("error:" + err.Error())
		} else {
			for _, r := range rows {
				for _, v := range r {
					t.rows.AddRecord(v.String())
				}
			}
		}
		if now > req.deadline {
			t.misses++
		}
		t.lat.Record(int64(now - req.arrive))
		req.span.End()
		s.inFlight--
		t.inflight--
		s.gInflight.Add(-1)
		s.wake.Fire()
	})
}

// runQuery scatters the workload's per-shard plan over the tenant's
// device subset, one host thread per shard, and merges the partials.
// A shard whose NDP path faults falls back to Conv inside NDPScan —
// only that shard degrades; a shard that fails outright contributes an
// error without sinking the other shards' work.
func (s *Server) runQuery(h *biscuit.MultiHost, req *request) ([]db.Row, error) {
	t := req.t
	// Snapshot the slot placement at dispatch: a cutover can only land
	// between queries (the dispatcher drains the tenant first), but the
	// snapshot makes the whole-query placement explicit.
	devs := append([]int(nil), t.shardDev...)
	repl := append([]bool(nil), t.shardRepl...)
	partials := make([][]db.Row, len(devs))
	errs := make([]error, len(devs))
	if len(devs) == 1 {
		partials[0], errs[0] = s.runShard(h, req, devs[0], repl[0])
	} else {
		evs := make([]*sim.Event, len(devs))
		for k, dev := range devs {
			k, dev := k, dev
			evs[k] = h.Go(fmt.Sprintf("q.%s.%d.s%d", t.cfg.Name, req.seq, dev), func(h3 *biscuit.MultiHost) {
				partials[k], errs[k] = s.runShard(h3, req, dev, repl[k])
			})
		}
		h.Proc().WaitAll(evs...)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return t.wl.merge(partials), nil
}

// runShard executes the per-shard partial plan on device dev, against
// the replica tables when the slot has migrated there. The planner
// probe re-samples per request with a stream derived from (seed,
// tenant, seq, shard) so planning stays reproducible under any
// interleaving.
func (s *Server) runShard(h *biscuit.MultiHost, req *request, dev int, replica bool) ([]db.Row, error) {
	data := s.Datas[dev]
	if replica {
		data = s.replicas[dev]
	}
	ex := db.NewExec(h.Unit(dev), s.DBs[dev])
	rng := s.takeRand(s.Cfg.Seed ^ int64(req.t.idx+1)<<40 ^ int64(req.seq+1)<<8 ^ int64(dev+1))
	defer func() { s.rands = append(s.rands, rng) }()
	return req.t.wl.runShard(&shardCtx{
		host: h.Unit(dev), ex: ex, data: data, rng: rng,
		replica: replica,
	})
}

// takeRand returns a source seeded with seed: a free one re-seeded, whose
// stream is a fresh source's, or a new one.
func (s *Server) takeRand(seed int64) *rand.Rand {
	n := len(s.rands)
	if n == 0 {
		return biscuit.SeededRand(seed)
	}
	r := s.rands[n-1]
	s.rands = s.rands[:n-1]
	r.Seed(seed)
	return r
}

// TenantReport is one tenant's serving-window outcome. All fields are
// deterministic per seed.
type TenantReport struct {
	Name           string               `json:"name"`
	Workload       string               `json:"workload"`
	Weight         int                  `json:"weight"`
	OfferedQPS     float64              `json:"offered_qps"`
	Offered        int                  `json:"offered"`
	Admitted       int                  `json:"admitted"`
	Rejected       int                  `json:"rejected"`
	Completed      int                  `json:"completed"`
	DeadlineMisses int                  `json:"deadline_misses"`
	Errors         int                  `json:"errors"`
	Migrations     int                  `json:"migrations"`
	SLONs          int64                `json:"slo_ns"`
	Lat            stats.LatencySummary `json:"lat"`
	ThroughputQPS  float64              `json:"throughput_qps"`
	RowDigest      uint64               `json:"row_digest"`
}

// Report is the outcome of one serving window.
type Report struct {
	Policy           string         `json:"policy"`
	Devices          int            `json:"devices"`
	DurationNs       int64          `json:"sim_duration_ns"`
	Completed        int            `json:"completed"`
	Rejected         int            `json:"rejected"`
	AggThroughputQPS float64        `json:"agg_throughput_qps"`
	DispatchDigest   uint64         `json:"dispatch_digest"`
	Tenants          []TenantReport `json:"tenants"`

	// Self-healing outcome (zero values when Heal is off): every
	// recorded shard-slot cutover, the count of monitor transitions, and
	// the monitor's transition-log digest — the cross-run determinism
	// witness.
	Migrations        []MigrationRecord `json:"migrations,omitempty"`
	HealthTransitions int               `json:"health_transitions,omitempty"`
	HealthDigest      uint64            `json:"health_digest,omitempty"`

	// Telemetry carries one summary per sampled gauge series when
	// EnableTelemetry was called — digests included, so the bench gate
	// pins the continuous view of the window, not just its end state.
	Telemetry []telemetry.SeriesSummary `json:"telemetry,omitempty"`

	// DispatchOrder lists every dispatch as "tenant:seq" in scheduling
	// order — the determinism tests' ground truth (not exported to
	// bench JSON; the digest stands in for it there).
	DispatchOrder []string `json:"-"`
}

func (s *Server) report(took sim.Time) *Report {
	rep := &Report{
		Policy:         s.policy.name(),
		Devices:        s.Cfg.Devices,
		DurationNs:     int64(took),
		Completed:      s.completed,
		Rejected:       s.rejected,
		DispatchDigest: s.dispatchHash.Sum64(),
		DispatchOrder:  s.dispatchSeq,
	}
	rep.Migrations = s.migrations
	if s.Monitor != nil {
		rep.HealthTransitions = len(s.Monitor.Transitions())
		rep.HealthDigest = s.Monitor.Signature()
	}
	if s.sampler != nil {
		rep.Telemetry = s.sampler.Summaries()
	}
	if took > 0 {
		rep.AggThroughputQPS = float64(s.completed) / took.Seconds()
	}
	for _, t := range s.tenants {
		tr := TenantReport{
			Name:           t.cfg.Name,
			Workload:       t.cfg.Workload,
			Weight:         t.cfg.Weight,
			OfferedQPS:     t.cfg.RateQPS,
			Offered:        len(t.arrivals),
			Admitted:       t.admitted,
			Rejected:       t.rejected,
			Completed:      t.completed,
			DeadlineMisses: t.misses,
			Errors:         t.errors,
			Migrations:     t.migrations,
			SLONs:          int64(t.cfg.SLO),
			Lat:            t.lat.Summary(),
			RowDigest:      t.rows.Sum64(),
		}
		if took > 0 {
			tr.ThroughputQPS = float64(t.completed) / took.Seconds()
		}
		rep.Tenants = append(rep.Tenants, tr)
	}
	return rep
}
