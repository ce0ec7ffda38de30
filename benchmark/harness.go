//biscuitvet:walltime-ok the benchmark's host-clock metrics are wall-clock readings by definition; nothing read here feeds back into simulated time

package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"time"

	"biscuit"
	"biscuit/internal/serve"
	"biscuit/internal/sim"
	"biscuit/internal/trace"
	"biscuit/internal/tracestat"
)

// The three clocks a number can come from. Host-clock values are noisy
// and compared within a bound; sim-clock values and counts repeat
// exactly for a given seed and are compared exactly.
const (
	clockHost  = "host"
	clockSim   = "sim"
	clockCount = "count"
)

// Metric is one reported number. N is the sample count behind Value.
type Metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
	Clock string
}

// Check is one correctness assertion of a run.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result collects what one flow of one workload produced.
type result struct {
	workload  string
	attempted int
	failed    int
	metrics   map[string]Metric
	checks    []Check
	notes     []string // printed, never a failure
	// pinned holds what expected_seed1.json pins beside the sim-clock
	// metrics and counts, as printable strings: under "pin:" the answers
	// (row digests, planted counts), which no change may move, and
	// under "sim:" the digests of the modelled schedule, which a change
	// to the model moves legitimately.
	pinned map[string]string
}

func newResult(workload string) *result {
	return &result{workload: workload, metrics: map[string]Metric{}, pinned: map[string]string{}}
}

// put records a metric; the name must be in the spec table, which
// supplies unit and clock.
func (r *result) put(name string, v float64, n int) {
	sp, ok := specByName[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in the spec table")
	}
	r.metrics[name] = Metric{Name: name, Value: v, Unit: sp.unit, N: n, Clock: sp.clock}
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	c := Check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.checks = append(r.checks, c)
}

func (r *result) pin(name string, format string, args ...any) {
	r.pinned["pin:"+name] = fmt.Sprintf(format, args...)
}

func (r *result) pinSim(name string, format string, args ...any) {
	r.pinned["sim:"+name] = fmt.Sprintf(format, args...)
}

func (r *result) correct() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// ctx is what a flow hands every workload: the seed, the sizes, the
// time budget and — in the traced flow only — the span recorder.
type ctx struct {
	seed   int64
	sc     scale
	budget time.Duration // untraced batches run until this much wall time has passed
	rec    *recorder     // nil in the untraced flow
	// corruptRef makes every workload's report compare against a
	// damaged copy of its reference, so the smoke test can see the
	// correctness check fail. It touches no metric and no count.
	corruptRef bool
}

// ---------------------------------------------------------------------
// Host-clock span recorder (the benchmark's own; spans inside the
// program are a later change). Spans stay in memory until exit.

type span struct {
	Run    int    `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = none
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type recorder struct {
	t0    time.Time
	spans []span
	stack []int // ids of open spans
	run   int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// do runs fn inside a span. A top-level span opens a new run, so every
// span of one op shares its run id. A nil recorder just calls fn.
func (rc *recorder) do(name string, fn func()) {
	if rc == nil {
		fn()
		return
	}
	parent := 0
	if len(rc.stack) > 0 {
		parent = rc.stack[len(rc.stack)-1]
	} else {
		rc.run++
	}
	id := len(rc.spans) + 1
	rc.spans = append(rc.spans, span{Run: rc.run, ID: id, Parent: parent, Name: name, Start: int64(time.Since(rc.t0))})
	rc.stack = append(rc.stack, id)
	fn()
	rc.stack = rc.stack[:len(rc.stack)-1]
	rc.spans[id-1].End = int64(time.Since(rc.t0))
}

// selfTimes sums, per span name, each span's duration minus the part
// its children cover.
func selfTimes(spans []span) map[string]int64 {
	child := make([]int64, len(spans)+1)
	for _, s := range spans {
		child[s.Parent] += s.End - s.Start
	}
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - child[s.ID]
	}
	return out
}

// ---------------------------------------------------------------------
// Timed regions.

// The clock probe. The sandbox's cores run at about 4.1 GHz while the
// neighbours on the shared host are idle and 3.2 to 3.3 GHz while they
// are busy, for anything from milliseconds to many minutes at a time,
// and host time moves 15 to 33 % with the clock: more than the widest
// bound the contract allows. The probe is a chain of dependent shifts
// and xors, six cycles an iteration on any current x86 core and no
// memory access, so the time it takes is the core's cycle time and
// nothing else. Every timed region starts and ends with a probe; its
// time at the reference clock is its wall time x (mean clock of the
// probes around it / reference clock), i.e. the core cycles it took,
// written as ms at 3 GHz. README.md has the measurements.
const (
	probeIters  = 60000
	probeCycles = 6 * probeIters
	probeSlices = 5
	refClockGHz = 3.0
	// probeWindow is how far either side of a region its clock is read
	// from: wide enough that a region with two probes of its own sees a
	// dozen, narrow enough to follow a change of mode within a run.
	probeWindow = 2 * time.Second
)

// probes is every reading of the run, in time order.
var probes []struct {
	at  time.Time
	ghz float64
}

var probeSink uint64

// clockProbe times the chain probeSlices times and logs the fastest: a
// slice the scheduler or the sibling hyperthread disturbed reads slow,
// never fast. It takes about half a millisecond.
func clockProbe() {
	best := time.Duration(1 << 62)
	for i := 0; i < probeSlices; i++ {
		x := probeSink | 88172645463325252
		t0 := time.Now()
		for j := 0; j < probeIters; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		best = min(best, time.Since(t0))
		probeSink = x
	}
	probes = append(probes, struct {
		at  time.Time
		ghz float64
	}{time.Now(), probeCycles / float64(best.Nanoseconds())})
}

// meter brackets a timed region with the clock probe, the wall clock and
// the allocator's cumulative totals.
type meter struct {
	t0 time.Time
	m0 runtime.MemStats
}

type measured struct {
	start, end time.Time
	wall       time.Duration
	bytes      uint64
	mallocs    uint64
}

func startMeter() *meter {
	clockProbe()
	m := &meter{}
	runtime.ReadMemStats(&m.m0)
	m.t0 = time.Now()
	return m
}

func (m *meter) stop() measured {
	end := time.Now()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	clockProbe()
	return measured{start: m.t0, end: end, wall: end.Sub(m.t0),
		bytes: m1.TotalAlloc - m.m0.TotalAlloc, mallocs: m1.Mallocs - m.m0.Mallocs}
}

// plus joins a later timed region of the same batch to a.
func (a measured) plus(b measured) measured {
	if a.start.IsZero() {
		a.start = b.start
	}
	return measured{start: a.start, end: b.end, wall: a.wall + b.wall,
		bytes: a.bytes + b.bytes, mallocs: a.mallocs + b.mallocs}
}

// clockGHz is the mean of the probes from probeWindow before the region
// to probeWindow after it. Read it once the run's batches are done, so
// that the later probes exist.
func (m measured) clockGHz() float64 {
	from, to := m.start.Add(-probeWindow), m.end.Add(probeWindow)
	var sum float64
	n := 0
	for _, p := range probes {
		if !p.at.Before(from) && !p.at.After(to) {
			sum += p.ghz
			n++
		}
	}
	return sum / float64(n)
}

// refMs is the region's wall time in ms at the reference clock.
func (m measured) refMs() float64 { return ms(m.wall) * m.clockGHz() / refClockGHz }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

const mb = 1 << 20

// liveHeapMB forces a collection and reports what survives it.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / mb
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// ---------------------------------------------------------------------
// Counts read from the registries the platform already exposes.

const (
	cNandReads = iota
	cNandPrograms
	cNandErases
	cNandBytesRead
	cFTLReads
	cFTLWrites
	cGCRounds
	cGCMoves
	cParityWrites
	cDegraded
	cReconstructs
	cRebuildPages
	cReadRetries
	cCmds
	cBytesToHost
	cSwitches
	cPortTransfers
	cPagesLink
	cNDPScans
	cConvScans
	cNDPFallbacks
	nCounts
)

type counts [nCounts]int64

// countMetrics maps each count to the metric that reports it, and
// whether the metric is per op or a plain total.
var countMetrics = [nCounts]struct {
	name  string
	perOp bool
}{
	cNandReads:     {"nand.reads_per_op", true},
	cNandPrograms:  {"nand.programs_per_op", true},
	cNandErases:    {"nand.erases_per_op", true},
	cNandBytesRead: {"nand.bytes_read_per_op", true},
	cFTLReads:      {"ftl.reads_per_op", true},
	cFTLWrites:     {"ftl.writes_per_op", true},
	cGCRounds:      {"ftl.gc_rounds", false},
	cGCMoves:       {"ftl.gc_page_moves", false},
	cParityWrites:  {"ftl.parity_writes", false},
	cDegraded:      {"ftl.degraded_reads", false},
	cReconstructs:  {"ftl.reconstructs", false},
	cRebuildPages:  {"ftl.rebuild_pages", false},
	cReadRetries:   {"ftl.read_retries", false},
	cCmds:          {"hostif.cmds_per_op", true},
	cBytesToHost:   {"hostif.bytes_to_host_per_op", true},
	cSwitches:      {"fibers.switches_per_op", true},
	cPortTransfers: {"core.port_transfers_per_op", true},
	cPagesLink:     {"db.pages_over_link_per_op", true},
	cNDPScans:      {"db.ndp_scans", false},
	cConvScans:     {"db.conv_scans", false},
	cNDPFallbacks:  {"db.ndp_fallbacks", false},
}

// snapshot sums the cumulative counts over the given devices.
func snapshot(systems []*biscuit.System) counts {
	var c counts
	for _, s := range systems {
		p := s.Plat
		r, pr, er, br := p.Array.Stats()
		c[cNandReads] += r
		c[cNandPrograms] += pr
		c[cNandErases] += er
		c[cNandBytesRead] += br
		fr, fw := p.FTL.IOStats()
		c[cFTLReads] += fr
		c[cFTLWrites] += fw
		gr, gm := p.FTL.GCStats()
		c[cGCRounds] += gr
		c[cGCMoves] += gm
		rain := p.FTL.Rain()
		c[cParityWrites] += rain.ParityWrites
		c[cDegraded] += rain.DegradedReads
		c[cReconstructs] += rain.Reconstructs
		c[cRebuildPages] += p.FTL.Rebuild().Pages
		retries, _, _, _ := p.FTL.FaultStats()
		c[cReadRetries] += retries
		cmds, up, _ := p.HostIF.Stats()
		c[cCmds] += cmds
		c[cBytesToHost] += up
		c[cSwitches] += p.DevRT.Switches()
		_, _, transfers, _, _ := s.RT.ChannelManager().Stats()
		c[cPortTransfers] += transfers
		c[cPagesLink] += p.Ctrs.Get("db.pages.link")
		c[cNDPScans] += p.Ctrs.Get("db.scan.ndp")
		c[cConvScans] += p.Ctrs.Get("db.scan.conv")
		c[cNDPFallbacks] += p.Ctrs.Get("db.ndp.fallback")
	}
	return c
}

func (c counts) minus(b counts) counts {
	for i := range c {
		c[i] -= b[i]
	}
	return c
}

// putCounts reports a counted batch: the per-layer counts, the
// scheduler's event count, and the hostif read latency the platform's
// histogram registry holds.
func (r *result) putCounts(c counts, events int64, ops int, wallMsPerOp float64, systems []*biscuit.System) {
	for i, cm := range countMetrics {
		v := float64(c[i])
		if cm.perOp {
			v /= float64(ops)
		}
		r.put(cm.name, v, ops)
	}
	r.put("sim.events_per_op", float64(events)/float64(ops), ops)
	if events > 0 {
		r.put("sim.wall_ns_per_event", wallMsPerOp*1e6*float64(ops)/float64(events), ops)
	}
	var p50, p99, n int64
	for _, s := range systems {
		if h := s.Plat.Hists.Get("hostif.read"); h != nil && h.Count() > 0 {
			p50 = max(p50, h.Quantile(0.50))
			p99 = max(p99, h.Quantile(0.99))
			n += h.Count()
		}
	}
	r.put("hostif.read_p50_us", float64(p50)/1e3, int(n))
	r.put("hostif.read_p99_us", float64(p99)/1e3, int(n))
}

// ---------------------------------------------------------------------
// The counted/traced pass: a sim tracer, a scheduler hook counting
// dispatches, and tracestat's critical-path attribution.

type observer struct {
	events int64
	tr     *trace.Tracer
}

func (o *observer) hook(env *sim.Env) {
	env.SetSchedHook(func(sim.SchedEvent) { o.events++ })
}

// attachSystem starts observing a single-device system with a fresh
// tracer; detachSystem ends it.
func (o *observer) attachSystem(sys *biscuit.System) {
	o.tr = sys.NewTracer()
	o.hook(sys.Env)
}

func detachSystem(sys *biscuit.System) {
	sys.SetTracer(nil)
	sys.Env.SetSchedHook(nil)
}

// attachServer observes one serving window; the server is consumed by
// its Run, so there is nothing to detach.
func (o *observer) attachServer(s *serve.Server) {
	o.tr = trace.New(s.MS.Env)
	s.SetTracer(o.tr)
	o.hook(s.MS.Env)
}

// rootTrack is a host-layer track, so the root span owns every instant
// no deeper layer is busy.
const (
	rootTrack = "host/query"
	rootSpan  = "bench.op"
)

var critLayers = []string{"host", "nvme", "dev", "ftl", "nand"}

// putCrit attributes the last rootSpan window of tr to the deepest
// busy layer at every instant and reports the shares under
// crit.<tag>.<layer>_share. One cause per instant, so the layer times
// must sum to the window exactly.
func (r *result) putCrit(tag string, tr *trace.Tracer) {
	var buf bytes.Buffer
	err := tr.WriteJSON(&buf)
	var parsed *tracestat.Trace
	if err == nil {
		parsed, err = tracestat.Parse(&buf)
	}
	var b *tracestat.Breakdown
	if err == nil {
		b, err = parsed.CriticalPathNth(rootSpan, -1)
	}
	if err != nil {
		r.check("crit."+tag, false, "%v", err)
		return
	}
	byLayer := map[string]int64{}
	var sum int64
	for _, l := range b.Layers {
		byLayer[l.Layer] += l.Ns
		sum += l.Ns
	}
	r.check("crit."+tag+".sums_to_window", sum == b.TotalNs && b.TotalNs > 0, "layers sum to %d ns, window is %d ns", sum, b.TotalNs)
	for _, l := range critLayers {
		r.put("crit."+tag+"."+l+"_share", float64(byLayer[l])/float64(b.TotalNs), 1)
	}
}
