package serve

import (
	"reflect"
	"testing"

	"biscuit/internal/sim"
)

// window builds and runs one small serving window.
func window(t *testing.T, mut func(*Config)) *Report {
	t.Helper()
	cfg := Config{
		SF:      0.002,
		Devices: 2,
		Window:  400 * sim.Millisecond,
		Seed:    7,
		Tenants: []TenantConfig{
			{Name: "acme", Workload: "q6", RateQPS: 40, Weight: 2},
			{Name: "bolt", Workload: "qpoint", RateQPS: 60},
		},
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s.Run()
}

func TestServeWindowCompletesAllAdmitted(t *testing.T) {
	rep := window(t, nil)
	if rep.Completed == 0 {
		t.Fatal("no queries completed")
	}
	for _, tr := range rep.Tenants {
		if tr.Admitted != tr.Completed {
			t.Fatalf("tenant %s: admitted %d but completed %d (drain must finish the queue)",
				tr.Name, tr.Admitted, tr.Completed)
		}
		if tr.Offered != tr.Admitted+tr.Rejected {
			t.Fatalf("tenant %s: offered %d != admitted %d + rejected %d",
				tr.Name, tr.Offered, tr.Admitted, tr.Rejected)
		}
		if tr.Completed > 0 && tr.Lat.Count != int64(tr.Completed) {
			t.Fatalf("tenant %s: %d sojourn samples for %d completions", tr.Name, tr.Lat.Count, tr.Completed)
		}
	}
}

func TestServeSameSeedDeterministic(t *testing.T) {
	a := window(t, nil)
	b := window(t, nil)
	if a.DispatchDigest != b.DispatchDigest {
		t.Fatalf("dispatch digest diverged: %x vs %x\n a: %v\n b: %v",
			a.DispatchDigest, b.DispatchDigest, a.DispatchOrder, b.DispatchOrder)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed reports diverged:\n a: %+v\n b: %+v", a, b)
	}
}

// TestServeConservation holds the serving layer's conservation law on
// a WFQ and an EDF overload that sheds load and on a self-healing
// window that loses a die: per tenant every offered query is admitted
// or rejected, every admitted one completes by drain, errors are a
// subset of completions, and the report's totals are the tenant sums.
func TestServeConservation(t *testing.T) {
	shed := func(c *Config) {
		c.Tenants[0].QueueCap = 0 // default (32)
		c.Tenants[1].QueueCap = 0
	}
	_, heal := healWindow(t, 7, nil)
	for _, w := range []struct {
		name string
		rep  *Report
	}{
		{"wfq", run(t, overload("wfq", shed))},
		{"edf", run(t, overload("edf", shed))},
		{"heal", heal},
	} {
		var completed, rejected int
		for _, tr := range w.rep.Tenants {
			if tr.Offered != tr.Admitted+tr.Rejected || tr.Completed != tr.Admitted || tr.Errors > tr.Completed {
				t.Errorf("%s tenant %s: offered %d, admitted %d, rejected %d, completed %d, errors %d",
					w.name, tr.Name, tr.Offered, tr.Admitted, tr.Rejected, tr.Completed, tr.Errors)
			}
			completed += tr.Completed
			rejected += tr.Rejected
		}
		if w.rep.Completed != completed || w.rep.Rejected != rejected {
			t.Errorf("%s: report completed %d / rejected %d, tenants sum to %d / %d",
				w.name, w.rep.Completed, w.rep.Rejected, completed, rejected)
		}
		if w.name != "heal" && rejected == 0 {
			t.Errorf("%s: the overload shed nothing", w.name)
		}
	}
}
