package serve

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"biscuit/internal/fault"
	"biscuit/internal/sim"
	"biscuit/internal/tracestat"

	"biscuit"
)

// overload builds a window whose offered load is far past the array's
// measured capacity (~120-250 qps at SF 0.002 on one device), so both
// tenants stay backlogged and the scheduling policy decides who runs.
func overload(policy string, mut func(*Config)) Config {
	cfg := Config{
		SF:      0.002,
		Devices: 1,
		Policy:  policy,
		Window:  300 * sim.Millisecond,
		Seed:    11,
		Tenants: []TenantConfig{
			{Name: "acme", Workload: "q6", RateQPS: 400, Weight: 3, QueueCap: 500},
			{Name: "bolt", Workload: "q6", RateQPS: 400, Weight: 1, QueueCap: 500},
		},
	}
	if mut != nil {
		mut(&cfg)
	}
	return cfg
}

func run(t *testing.T, cfg Config) *Report {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s.Run()
}

// TestWFQWeightProportionality pins the fairness property: over a
// backlogged interval a 3:1 weight split yields ~3:1 dispatches. The
// middle slice of the dispatch order is sampled because both queues are
// guaranteed non-empty there (offered rate is ~3x capacity per tenant).
func TestWFQWeightProportionality(t *testing.T) {
	rep := run(t, overload("wfq", nil))
	order := rep.DispatchOrder
	if len(order) < 120 {
		t.Fatalf("window too small: only %d dispatches", len(order))
	}
	var acme, bolt int
	for _, tag := range order[20:120] {
		if tag[:4] == "acme" {
			acme++
		} else {
			bolt++
		}
	}
	ratio := float64(acme) / float64(bolt)
	if ratio < 2.2 || ratio > 3.9 {
		t.Fatalf("backlogged dispatch ratio %.2f (acme %d, bolt %d), want ~3.0 for weights 3:1",
			ratio, acme, bolt)
	}
	// The favored tenant must also see it in sojourn time.
	var a, b TenantReport
	for _, tr := range rep.Tenants {
		switch tr.Name {
		case "acme":
			a = tr
		case "bolt":
			b = tr
		}
	}
	if a.Lat.P50 >= b.Lat.P50 {
		t.Fatalf("weight-3 tenant p50 %v not better than weight-1 tenant p50 %v",
			sim.Time(a.Lat.P50), sim.Time(b.Lat.P50))
	}
}

// TestAdmissionControlRejectsPastQueueCap pins admission control: with
// the default 32-deep queues a 3x-overload window must shed load, and
// the offered/admitted/rejected accounting must balance.
func TestAdmissionControlRejectsPastQueueCap(t *testing.T) {
	rep := run(t, overload("wfq", func(c *Config) {
		c.Tenants[0].QueueCap = 0 // default (32)
		c.Tenants[1].QueueCap = 0
	}))
	if rep.Rejected == 0 {
		t.Fatal("3x overload against 32-deep queues rejected nothing")
	}
	for _, tr := range rep.Tenants {
		if tr.Offered != tr.Admitted+tr.Rejected {
			t.Fatalf("tenant %s: offered %d != admitted %d + rejected %d",
				tr.Name, tr.Offered, tr.Admitted, tr.Rejected)
		}
	}
}

// edfOverload offers one deadline-sensitive tenant (25ms SLO) and one
// batch tenant (10s SLO) each at ~2x capacity.
func edfOverload(policy string) Config {
	return Config{
		SF:      0.002,
		Devices: 1,
		Policy:  policy,
		Window:  300 * sim.Millisecond,
		Seed:    13,
		Tenants: []TenantConfig{
			{Name: "tight", Workload: "q6", RateQPS: 300, SLO: 25 * sim.Millisecond, QueueCap: 500},
			{Name: "loose", Workload: "q6", RateQPS: 300, SLO: 10 * sim.Second, QueueCap: 500},
		},
	}
}

// TestEDFDeadlineMissAccounting pins the miss accounting under
// overload: the 25ms-SLO tenant (demand alone exceeds capacity) must
// record misses, the 10s-SLO tenant none, and EDF — which runs the
// nearest deadline first — must not miss more than WFQ does for the
// deadline-sensitive tenant on the identical window.
func TestEDFDeadlineMissAccounting(t *testing.T) {
	edf := run(t, edfOverload("edf"))
	wfq := run(t, edfOverload("wfq"))

	get := func(rep *Report, name string) TenantReport {
		for _, tr := range rep.Tenants {
			if tr.Name == name {
				return tr
			}
		}
		t.Fatalf("no tenant %s in report", name)
		return TenantReport{}
	}
	tight, loose := get(edf, "tight"), get(edf, "loose")
	if tight.DeadlineMisses == 0 {
		t.Fatal("overloaded 25ms-SLO tenant recorded no deadline misses")
	}
	if tight.DeadlineMisses > tight.Completed {
		t.Fatalf("tenant tight: %d misses for %d completions", tight.DeadlineMisses, tight.Completed)
	}
	if loose.DeadlineMisses != 0 {
		t.Fatalf("10s-SLO tenant recorded %d misses in a sub-second window", loose.DeadlineMisses)
	}
	// EDF strictly prioritizes the near deadlines, so the tight tenant
	// must fare at least as well as under weight-1 fair queueing.
	wfqTight := get(wfq, "tight")
	if tight.DeadlineMisses > wfqTight.DeadlineMisses {
		t.Fatalf("EDF missed %d deadlines for the tight tenant, WFQ only %d",
			tight.DeadlineMisses, wfqTight.DeadlineMisses)
	}
	if tight.Lat.P50 >= loose.Lat.P50 {
		t.Fatalf("EDF tight-tenant p50 %v not better than loose-tenant p50 %v",
			sim.Time(tight.Lat.P50), sim.Time(loose.Lat.P50))
	}
}

// TestAdmissionOrderDeterministicPerPolicy pins same-seed determinism
// of the full admission/dispatch order for both policies, and that the
// two policies actually order the overloaded window differently.
func TestAdmissionOrderDeterministicPerPolicy(t *testing.T) {
	orders := map[string][]string{}
	for _, pol := range []string{"wfq", "edf"} {
		a := run(t, edfOverload(pol))
		b := run(t, edfOverload(pol))
		if a.DispatchDigest != b.DispatchDigest || !reflect.DeepEqual(a.DispatchOrder, b.DispatchOrder) {
			t.Fatalf("policy %s: same-seed dispatch order diverged", pol)
		}
		orders[pol] = a.DispatchOrder
	}
	if reflect.DeepEqual(orders["wfq"], orders["edf"]) {
		t.Fatal("wfq and edf produced identical dispatch orders on an overloaded window with 400x SLO spread")
	}
}

// faultIsolation pins tenants to disjoint shards and optionally arms a
// hostile fault plan on tenant acme's device only.
func faultIsolation(faulty bool) Config {
	cfg := Config{
		SF:      0.002,
		Devices: 2,
		Window:  400 * sim.Millisecond,
		Seed:    17,
		Tenants: []TenantConfig{
			{Name: "acme", Workload: "q6", RateQPS: 50, SLO: 30 * sim.Millisecond, Devices: []int{0}},
			{Name: "bolt", Workload: "q6", RateQPS: 50, SLO: 30 * sim.Millisecond, Devices: []int{1}},
		},
	}
	if faulty {
		cfg.PerDevice = func(i int, c biscuit.Config) biscuit.Config {
			if i == 0 {
				c.Fault = fault.Plan{
					Seed:               17,
					CorrectableProb:    0.2,
					UncorrectableProb:  0.01,
					TimeoutProb:        0.02,
					StallProb:          0.05,
					CorrectableLatency: 60 * sim.Microsecond,
					TimeoutDelay:       5 * sim.Millisecond,
					StallDelay:         200 * sim.Microsecond,
				}
			}
			return c
		}
	}
	return cfg
}

// TestPerShardFaultIsolation is the array generalization of the
// faultcurve property: a fault campaign on device 0 must degrade the
// SLO of the tenant pinned there and leave the device-1 tenant's
// results and deadline record untouched.
func TestPerShardFaultIsolation(t *testing.T) {
	clean := run(t, faultIsolation(false))
	faulty := run(t, faultIsolation(true))

	get := func(rep *Report, name string) TenantReport {
		for _, tr := range rep.Tenants {
			if tr.Name == name {
				return tr
			}
		}
		t.Fatalf("no tenant %s", name)
		return TenantReport{}
	}
	cleanAcme, faultyAcme := get(clean, "acme"), get(faulty, "acme")
	cleanBolt, faultyBolt := get(clean, "bolt"), get(faulty, "bolt")

	if cleanAcme.DeadlineMisses != 0 || cleanBolt.DeadlineMisses != 0 {
		t.Fatalf("fault-free window missed deadlines: acme %d, bolt %d",
			cleanAcme.DeadlineMisses, cleanBolt.DeadlineMisses)
	}
	if faultyAcme.Lat.P99 <= cleanAcme.Lat.P99 {
		t.Fatalf("faulted shard's tenant p99 %v not above fault-free %v",
			sim.Time(faultyAcme.Lat.P99), sim.Time(cleanAcme.Lat.P99))
	}
	if faultyBolt.DeadlineMisses != 0 {
		t.Fatalf("tenant on the clean shard missed %d deadlines under the other shard's faults",
			faultyBolt.DeadlineMisses)
	}
	if faultyBolt.RowDigest != cleanBolt.RowDigest {
		t.Fatal("clean-shard tenant's row digest changed under the other shard's fault plan")
	}
}

// TestServeTraceByteIdentical pins the acceptance criterion that two
// same-seed serving windows export byte-identical Perfetto traces —
// devices, tenants and scheduler interleaved in one file — and that the
// export passes tracestat.Parse, the one reader of the format, with
// spans on the namespaced device and tenant tracks.
func TestServeTraceByteIdentical(t *testing.T) {
	export := func() []byte {
		s, err := New(overload("edf", func(c *Config) { c.Devices = 2 }))
		if err != nil {
			t.Fatal(err)
		}
		tr := s.MS.NewTracer()
		s.SetTracer(tr)
		s.Run()
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := export(), export()
	if len(a) == 0 {
		t.Fatal("empty trace export")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed traces differ: %d vs %d bytes", len(a), len(b))
	}
	parsed, err := tracestat.Parse(bytes.NewReader(a))
	if err != nil {
		t.Fatalf("serving trace breaks a tracestat rule:\n%v", err)
	}
	for _, want := range []string{"ssd0/", "ssd1/", "tenant/acme", "tenant/bolt"} {
		if !slices.ContainsFunc(parsed.Spans, func(sp tracestat.Span) bool { return strings.HasPrefix(sp.Track, want) }) {
			t.Errorf("no span on a %q track", want)
		}
	}
}
