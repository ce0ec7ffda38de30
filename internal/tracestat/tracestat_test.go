package tracestat

import (
	"strings"
	"testing"

	"biscuit/internal/sim"
	"biscuit/internal/trace"
)

// buildTrace exports a hand-scripted trace through the real trace
// package, so the parser is tested against the format actually
// emitted:
//
//	host/query  |-------- sql.query 0..1000 --------|
//	host/nvme        |---- nvme.read 100..600 ----|
//	ftl/gc               |-- ftl.gc 200..500 --|
//	nand/ch0/w0             |- nand.read 300..400 -|
//	ctr/qd       counter 0:0 200:3 800:1
func buildTrace(t *testing.T) *Trace {
	t.Helper()
	env := sim.NewEnv()
	tr := trace.New(env)
	qTk := tr.Track("host/query")
	nvmeTk := tr.Track("host/nvme")
	ftlTk := tr.Track("ftl/gc")
	nandTk := tr.Track("nand/ch0/w0")
	ctrTk := tr.Track("ctr/qd")

	type mark struct {
		at sim.Time
		fn func()
	}
	var q, cmd, gc, nd trace.Span
	script := []mark{
		{0, func() { q = tr.Begin(qTk, "sql.query") }},
		{100, func() { cmd = tr.BeginAsync(nvmeTk, "nvme.read") }},
		{200, func() { gc = tr.Begin(ftlTk, "ftl.gc") }},
		{300, func() { nd = tr.Begin(nandTk, "nand.read") }},
		{400, func() { nd.End() }},
		{500, func() { gc.End() }},
		{600, func() { cmd.End(); tr.Instant(nvmeTk, "cmd.retry") }},
		{1000, func() { q.End() }},
	}
	env.Spawn("script", func(p *sim.Proc) {
		for _, m := range script {
			if d := m.at - p.Now(); d > 0 {
				p.Sleep(d)
			}
			m.fn()
		}
	})
	env.Run()
	tr.CounterAt(ctrTk, "qd", 0, 0)
	tr.CounterAt(ctrTk, "qd", 200, 3)
	tr.CounterAt(ctrTk, "qd", 800, 1)

	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	return parsed
}

func TestParseRoundTrip(t *testing.T) {
	tr := buildTrace(t)
	if len(tr.Tracks) != 5 || tr.Tracks[0] != "host/query" || tr.Tracks[4] != "ctr/qd" {
		t.Fatalf("tracks = %v", tr.Tracks)
	}
	if len(tr.Spans) != 4 {
		t.Fatalf("spans = %+v", tr.Spans)
	}
	if tr.Instants != 1 {
		t.Fatalf("instants = %d, want 1", tr.Instants)
	}
	if tr.End != 1000 {
		t.Fatalf("end = %d, want 1000", tr.End)
	}
	// The async pair must reconstruct to its exact extent.
	for _, sp := range tr.Spans {
		if sp.Name == "nvme.read" && (sp.Start != 100 || sp.End != 600) {
			t.Fatalf("async span = %+v, want 100..600", sp)
		}
	}
	if len(tr.Counters) != 1 || len(tr.Counters[0].Points) != 3 {
		t.Fatalf("counters = %+v", tr.Counters)
	}
	if p := tr.Counters[0].Points[1]; p.Ts != 200 || p.V != 3 {
		t.Fatalf("counter point = %+v, want 200:3", p)
	}
}

func TestAggregate(t *testing.T) {
	tr := buildTrace(t)
	aggs := tr.Aggregate()
	byKey := map[string]TrackAgg{}
	for _, a := range aggs {
		byKey[a.Track+" "+a.Name] = a
	}
	nd := byKey["nand/ch0/w0 nand.read"]
	if nd.Count != 1 || nd.TotalNs != 100 || nd.MinNs != 100 || nd.MaxNs != 100 {
		t.Fatalf("nand agg = %+v", nd)
	}
	if byKey["host/query sql.query"].TotalNs != 1000 {
		t.Fatalf("query agg = %+v", byKey["host/query sql.query"])
	}
}

func TestCounterStats(t *testing.T) {
	tr := buildTrace(t)
	sts := tr.CounterStats()
	if len(sts) != 1 {
		t.Fatalf("stats = %+v", sts)
	}
	st := sts[0]
	if st.Min != 0 || st.Max != 3 || st.Last != 1 || st.Samples != 3 {
		t.Fatalf("stat = %+v", st)
	}
	// time-weighted over [0,1000]: 0×200 + 3×600 + 1×200 = 2000 → mean 2.0
	if st.MeanMilli != 2000 {
		t.Fatalf("mean×1000 = %d, want 2000", st.MeanMilli)
	}
}

func TestCriticalPathAttribution(t *testing.T) {
	tr := buildTrace(t)
	b, err := tr.CriticalPath("")
	if err != nil {
		t.Fatal(err)
	}
	if b.TotalNs != 1000 || b.QueryStart != 0 || b.QueryEnd != 1000 {
		t.Fatalf("window = %+v", b)
	}
	// Deepest-layer attribution: nand 300..400 (100), ftl 200..300 +
	// 400..500 (200), nvme 100..200 + 500..600 (200), host the rest
	// (500).
	want := map[string]int64{"nand": 100, "ftl": 200, "nvme": 200, "host": 500}
	var sum int64
	for _, l := range b.Layers {
		if want[l.Layer] != l.Ns {
			t.Fatalf("layer %s = %d ns, want %d (%+v)", l.Layer, l.Ns, want[l.Layer], b.Layers)
		}
		sum += l.Ns
	}
	if sum != b.TotalNs {
		t.Fatalf("layer shares sum to %d, want exactly %d", sum, b.TotalNs)
	}
	if b.DeviceNs != 500 {
		t.Fatalf("device-side critical path = %d, want 500", b.DeviceNs)
	}
	if b.DeviceNs > b.TotalNs {
		t.Fatalf("critical path %d exceeds the query window %d", b.DeviceNs, b.TotalNs)
	}
	// Operators sum to the window too.
	sum = 0
	for _, op := range b.Operators {
		sum += op.Ns
	}
	if sum != b.TotalNs {
		t.Fatalf("operator shares sum to %d, want exactly %d", sum, b.TotalNs)
	}
	// The chain walks host → nvme → ftl → nand → ftl → nvme → host.
	var names []string
	for _, c := range b.Chain {
		names = append(names, c.Layer)
	}
	wantChain := []string{"host", "nvme", "ftl", "nand", "ftl", "nvme", "host"}
	if strings.Join(names, ",") != strings.Join(wantChain, ",") {
		t.Fatalf("chain = %v, want %v", names, wantChain)
	}
}

func TestCriticalPathMissingRoot(t *testing.T) {
	tr := buildTrace(t)
	if _, err := tr.CriticalPath("no.such.span"); err == nil {
		t.Fatal("missing root span did not error")
	}
}

// The check fixtures are traceEvents arrays: a named track (tid 1),
// then the events under test.
const (
	named = `{"ph":"M","name":"thread_name","tid":1,"args":{"name":"host"}}`

	okSpan    = `{"ph":"X","name":"scan","tid":1,"ts":1,"dur":2}`
	okAsync   = `{"ph":"b","name":"read","tid":1,"ts":2,"id":7},{"ph":"e","name":"read","tid":1,"ts":3,"id":7}`
	okInstant = `{"ph":"i","name":"retry","tid":1,"ts":4}`
	okCounter = `{"ph":"C","name":"qd","tid":1,"ts":5,"args":{"value":1}},{"ph":"C","name":"qd","tid":1,"ts":6,"args":{"value":0}}`
)

// parseEvents parses the events behind the named track and returns
// Parse's violations, one per line of its error.
func parseEvents(t *testing.T, events ...string) []string {
	t.Helper()
	body := `{"traceEvents":[` + strings.Join(append([]string{named}, events...), ",") + `]}`
	tr, err := Parse(strings.NewReader(body))
	if err != nil {
		if tr != nil {
			t.Errorf("invalid trace returned a *Trace: %v", err)
		}
		return strings.Split(err.Error(), "\n")
	}
	return nil
}

func TestValidExportPasses(t *testing.T) {
	if issues := parseEvents(t, okSpan, okAsync, okInstant, okCounter); len(issues) != 0 {
		t.Errorf("valid export reported: %q", issues)
	}
}

// violations pairs each malformed event with the text its report must
// carry; every one follows a valid prefix.
var violations = []struct{ event, want string }{
	{`{"ph":"e","name":"read","tid":1,"ts":7,"id":9}`, "async end id 9 without a begin"},
	{`{"ph":"C","name":"depth","tid":1,"ts":8}`, "counter without an integer args.value"},
	{`{"ph":"C","name":"qd","tid":1,"ts":5.5,"args":{"value":2}}`, "counter ts 5500 ns steps back from 6000 ns on tid 1"},
	{`{"ph":"Q","name":"odd","tid":1,"ts":9}`, `unknown phase "Q"`},
	{`{"ph":"i","name":"lost","tid":2,"ts":10}`, "tid 2 has no thread_name metadata"},
	{`{"ph":"M","name":"thread_name","tid":0,"args":{"name":"ghost"}}`, "tid 0 is not ≥ 1"},
	{`{"ph":"X","name":"scan","tid":1,"ts":11,"dur":-1}`, "complete span without a non-negative dur"},
	{`{"ph":"i","name":"tick","tid":1}`, "missing or negative ts"},
	{`{"ph":"b","name":"read","tid":1,"ts":12,"id":"8"}`, `async id "8" is not an unsigned integer`},
}

func TestEachViolationIsReported(t *testing.T) {
	for _, v := range violations {
		issues := parseEvents(t, okSpan, okAsync, okCounter, v.event)
		if len(issues) != 1 || !strings.Contains(issues[0], v.want) {
			t.Errorf("%s: got %q, want one issue containing %q", v.event, issues, v.want)
		}
	}
}

func TestEveryViolationInAFileIsReported(t *testing.T) {
	events := []string{okSpan, okAsync, okCounter}
	for _, v := range violations {
		events = append(events, v.event)
	}
	issues := parseEvents(t, events...)
	if len(issues) != len(violations) {
		t.Errorf("got %d issues, want %d: %q", len(issues), len(violations), issues)
	}
	for _, v := range violations {
		if !strings.Contains(strings.Join(issues, "\n"), v.want) {
			t.Errorf("no issue contains %q: %q", v.want, issues)
		}
	}
}

func TestLayerOfNamespaces(t *testing.T) {
	cases := map[string]int{
		"nand/ch0/w0":      LayerNAND,
		"ssd3/nand/ch1/w2": LayerNAND,
		"ftl/gc":           LayerFTL,
		"ssd0/ftl/rain":    LayerFTL,
		"dev/internal":     LayerDev,
		"port/filter/h2d":  LayerDev,
		"host/nvme":        LayerNVMe,
		"ssd1/host/nvme":   LayerNVMe,
		"host/query":       LayerHost,
		"host/db":          LayerHost,
		"tenant/acme":      layerNone,
		"ctr/hostif.qd":    layerNone,
		"serve/sched":      layerNone,
	}
	for track, want := range cases {
		if got := layerOf(track); got != want {
			t.Fatalf("layerOf(%q) = %d, want %d", track, got, want)
		}
	}
}
