package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"biscuit/internal/sim"
)

// build records a small representative trace: sync spans, an async
// pair, an instant with args, and one deliberately leaked span of each
// flavor.
func build(leak bool) (*sim.Env, *Tracer) {
	env := sim.NewEnv()
	tr := New(env)
	die := tr.Track("nand/ch0/w0")
	cmd := tr.Track("host/nvme")
	env.Spawn("p", func(p *sim.Proc) {
		c := tr.BeginAsync(cmd, "nvme.read").Arg("lba", 42).Arg("bytes", 4096)
		p.Sleep(3 * sim.Microsecond)
		s := tr.Begin(die, "nand.read")
		p.Sleep(90 * sim.Microsecond)
		s.End()
		tr.Instant(cmd, "retry").ArgStr("why", "timeout \"injected\"")
		p.Sleep(7*sim.Microsecond + 250)
		c.End()
		if leak {
			tr.Begin(die, "leaked.sync")
			tr.BeginAsync(cmd, "leaked.async")
			p.Sleep(sim.Microsecond)
		}
	})
	env.Run()
	return env, tr
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	tk := tr.Track("x")
	s := tr.Begin(tk, "a").Arg("k", 1).ArgStr("s", "v")
	s.End()
	tr.BeginAsync(tk, "b").End()
	tr.Instant(tk, "i")
	if tr.Len() != 0 || tr.Now() != 0 {
		t.Fatal("nil tracer must observe nothing")
	}
}

func TestExportIsValidJSON(t *testing.T) {
	_, tr := build(true)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no events exported")
	}
	var sawMeta, sawX, sawI bool
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "M":
			sawMeta = true
		case "X":
			sawX = true
			if _, ok := ev["dur"]; !ok {
				t.Fatalf("X event missing dur: %v", ev)
			}
		case "i":
			sawI = true
			if ev["s"] != "t" {
				t.Fatalf("instant missing thread scope: %v", ev)
			}
		}
	}
	if !sawMeta || !sawX || !sawI {
		t.Fatalf("missing event kinds: meta=%v X=%v i=%v", sawMeta, sawX, sawI)
	}
}

func TestAsyncBalancedAfterExport(t *testing.T) {
	_, tr := build(true)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	d := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	d.UseNumber()
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := d.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	bal := map[string]int{}
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "b":
			bal[ev["id"].(json.Number).String()]++
		case "e":
			bal[ev["id"].(json.Number).String()]--
		}
	}
	for id, n := range bal {
		if n != 0 {
			t.Fatalf("async id %s unbalanced by %d", id, n)
		}
	}
}

func TestExportDeterministic(t *testing.T) {
	_, tr1 := build(true)
	_, tr2 := build(true)
	var b1, b2 bytes.Buffer
	if err := tr1.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := tr2.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("identical runs exported different bytes")
	}
}

func TestOpenSyncSpanClampedToNow(t *testing.T) {
	env, tr := build(true)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "\"dur\":-") {
		t.Fatal("negative duration leaked into export")
	}
	_ = env
}

func TestTimestampFormatting(t *testing.T) {
	env := sim.NewEnv()
	tr := New(env)
	tk := tr.Track("t")
	env.Spawn("p", func(p *sim.Proc) {
		p.Sleep(1*sim.Microsecond + 7) // 1.007 us
		tr.Instant(tk, "a")
		p.Sleep(sim.Millisecond) // 1001.007 us
		tr.Instant(tk, "b")
	})
	env.Run()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"\"ts\":1.007", "\"ts\":1001.007"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %s in export:\n%s", want, out)
		}
	}
}

func TestTrackRegistrationStable(t *testing.T) {
	env := sim.NewEnv()
	tr := New(env)
	a := tr.Track("a")
	b := tr.Track("b")
	if a2 := tr.Track("a"); a2 != a {
		t.Fatalf("re-registering a: got %d want %d", a2, a)
	}
	if a == b {
		t.Fatal("distinct tracks share an id")
	}
}

// BenchmarkSpanDisabled is the acceptance guard for the disabled fast
// path: a full Begin/Arg/End cycle against a nil tracer must not
// allocate.
func BenchmarkSpanDisabled(b *testing.B) {
	var tr *Tracer
	tk := tr.Track("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := tr.Begin(tk, "op").Arg("n", int64(i))
		s.End()
		tr.BeginAsync(tk, "cmd").Arg("lba", int64(i)).End()
		tr.Instant(tk, "tick")
	}
}

func TestSpanDisabledZeroAllocs(t *testing.T) {
	var tr *Tracer
	tk := tr.Track("x")
	allocs := testing.AllocsPerRun(1000, func() {
		s := tr.Begin(tk, "op").Arg("n", 1)
		s.End()
		tr.BeginAsync(tk, "cmd").ArgStr("k", "v").End()
		tr.Instant(tk, "tick")
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %v allocs/op, want 0", allocs)
	}
}

func TestNamespaceSharesStateAndPrefixesTracks(t *testing.T) {
	env := sim.NewEnv()
	tr := New(env)
	host := tr.Track("host/db")
	ssd0 := tr.Namespace("ssd0/")
	ssd1 := tr.Namespace("ssd1/")
	d0 := ssd0.Track("dev/internal")
	d1 := ssd1.Track("dev/internal")
	if d0 == d1 {
		t.Fatal("namespaced tracks must not collide")
	}
	// Same name through the same view resolves to the same track.
	if again := ssd0.Track("dev/internal"); again != d0 {
		t.Fatalf("re-registration changed id: %d != %d", again, d0)
	}
	// Nesting concatenates prefixes.
	tenant := tr.Namespace("tenant/").Namespace("acme/")
	tenant.Instant(tenant.Track("q"), "arrive")
	env.Spawn("p", func(p *sim.Proc) {
		s := ssd0.Begin(d0, "read")
		tr.Instant(host, "plan")
		p.Sleep(sim.Microsecond)
		s.End()
		ssd1.Instant(d1, "read")
	})
	env.Run()
	if tr.Len() != ssd0.Len() || tr.Len() != 4 {
		t.Fatalf("views must share one event log: root %d, view %d", tr.Len(), ssd0.Len())
	}
	var buf bytes.Buffer
	if err := ssd1.WriteJSON(&buf); err != nil { // any view exports the whole trace
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"host/db", "ssd0/dev/internal", "ssd1/dev/internal", "tenant/acme/q"} {
		if !strings.Contains(out, want) {
			t.Fatalf("export missing track %q:\n%s", want, out)
		}
	}
}

func TestNamespaceNilTracer(t *testing.T) {
	var tr *Tracer
	ns := tr.Namespace("ssd0/")
	if ns != nil {
		t.Fatal("Namespace of nil tracer must be nil")
	}
	ns.Instant(ns.Track("x"), "i")
}
