package serve

import (
	"fmt"
	"reflect"
	"testing"

	"biscuit/internal/ftl"
	"biscuit/internal/health"
	"biscuit/internal/sim"
)

// healWindow builds and runs one self-healing serving window: a die
// dies on device 0 a third of the way in, the monitor degrades the
// device, the rebuild fiber drains the die, and tenants migrate their
// device-0 shard slots to the replica on device 1. bolt is pinned to
// the healthy device — the clean-tenant witness.
func healWindow(t *testing.T, seed int64, mut func(*Config)) (*Server, *Report) {
	t.Helper()
	s := healServer(t, seed, mut)
	return s, s.Run()
}

// healServer builds healWindow's server without running it.
func healServer(t *testing.T, seed int64, mut func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		SF:          0.002,
		Devices:     2,
		Window:      150 * sim.Millisecond,
		Seed:        seed,
		Heal:        true,
		Migrate:     true,
		WeblogBytes: 1 << 20,
		FailAt:      50 * sim.Millisecond,
		FailDevice:  0,
		FailDie:     1,
		Tenants: []TenantConfig{
			{Name: "acme", Workload: "q6", RateQPS: 60, Weight: 2},
			{Name: "bolt", Workload: "qpoint", RateQPS: 50, Devices: []int{1}},
			{Name: "wisp", Workload: "wlog", RateQPS: 20},
		},
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// rebuildStats flattens every device's rebuild counters for comparison.
func rebuildStats(s *Server) []ftl.RebuildStats {
	var out []ftl.RebuildStats
	for _, sys := range s.MS.Systems {
		out = append(out, sys.Plat.FTL.Rebuild())
	}
	return out
}

func TestHealWindowMigratesAndDrains(t *testing.T) {
	s, rep := healWindow(t, 7, nil)
	if rep.HealthTransitions == 0 || rep.HealthDigest == 0 {
		t.Fatalf("die failure caused no health transitions: %+v", rep)
	}
	if s.Monitor.State(0) < health.Degraded {
		t.Fatalf("device 0 is %v after losing a die", s.Monitor.State(0))
	}
	if s.Monitor.State(1) != health.Healthy {
		t.Fatalf("healthy device 1 classified %v", s.Monitor.State(1))
	}
	if len(rep.Migrations) == 0 {
		t.Fatal("no shard slot migrated off the degraded device")
	}
	for _, m := range rep.Migrations {
		if m.FromDev != 0 || m.ToDev != 1 {
			t.Fatalf("migration %+v: want 0 -> 1", m)
		}
		if m.AtNs < int64(s.Cfg.FailAt) {
			t.Fatalf("migration %+v happened before the die failed", m)
		}
	}
	byName := map[string]TenantReport{}
	for _, tr := range rep.Tenants {
		byName[tr.Name] = tr
	}
	for name, tr := range byName {
		if tr.Errors != 0 {
			t.Fatalf("tenant %s saw %d errors; healing must keep queries clean", name, tr.Errors)
		}
		if tr.Admitted != tr.Completed {
			t.Fatalf("tenant %s: admitted %d, completed %d", name, tr.Admitted, tr.Completed)
		}
	}
	if byName["bolt"].Migrations != 0 {
		t.Fatal("bolt is pinned to the healthy device and must not migrate")
	}
	if byName["acme"].Migrations == 0 || byName["wisp"].Migrations == 0 {
		t.Fatalf("tenants on the degraded device must migrate: acme=%d wisp=%d",
			byName["acme"].Migrations, byName["wisp"].Migrations)
	}
	// The rebuild fiber must have drained the dead die's pages.
	var pages int64
	for _, rs := range rebuildStats(s) {
		pages += rs.Pages + rs.Parity
	}
	if pages == 0 {
		t.Fatal("proactive rebuild moved nothing off the dead die")
	}
}

func TestHealDeterminismMatrix(t *testing.T) {
	// Three seeds, two runs each: health transitions, rebuild work,
	// migration cutover points and the full report must be identical
	// across same-seed runs — the whole healing stack is part of the
	// deterministic surface.
	for _, seed := range []int64{3, 7, 11} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			sa, a := healWindow(t, seed, nil)
			sb, b := healWindow(t, seed, nil)
			if a.HealthDigest != b.HealthDigest {
				t.Fatalf("health transition log diverged: %x vs %x", a.HealthDigest, b.HealthDigest)
			}
			if a.DispatchDigest != b.DispatchDigest {
				t.Fatalf("dispatch order diverged:\n a: %v\n b: %v", a.DispatchOrder, b.DispatchOrder)
			}
			if !reflect.DeepEqual(a.Migrations, b.Migrations) {
				t.Fatalf("migration records diverged:\n a: %+v\n b: %+v", a.Migrations, b.Migrations)
			}
			if ra, rb := rebuildStats(sa), rebuildStats(sb); !reflect.DeepEqual(ra, rb) {
				t.Fatalf("rebuild counters diverged:\n a: %+v\n b: %+v", ra, rb)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("same-seed reports diverged:\n a: %+v\n b: %+v", a, b)
			}
		})
	}
}

// TestHealWindowMatcherMemoIsInvisible: a heal window — a die failure,
// degraded reads, the rebuild and shard migration — reports exactly the
// same with each device's matcher memo as without one, where every page
// the planner samples or a device scan streams runs through the
// automaton.
func TestHealWindowMatcherMemoIsInvisible(t *testing.T) {
	sa, a := healWindow(t, 7, nil)
	sb := healServer(t, 7, nil)
	for _, sys := range sb.MS.Systems {
		sys.Plat.Matcher = nil
	}
	b := sb.Run()
	if a.HealthDigest != b.HealthDigest || a.DispatchDigest != b.DispatchDigest {
		t.Fatalf("digests with the memo %x/%x, without %x/%x", a.HealthDigest, a.DispatchDigest, b.HealthDigest, b.DispatchDigest)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("reports diverged:\n with the memo: %+v\n without:       %+v", a, b)
	}
	if ra, rb := rebuildStats(sa), rebuildStats(sb); !reflect.DeepEqual(ra, rb) {
		t.Fatalf("rebuild counters diverged:\n with the memo: %+v\n without:       %+v", ra, rb)
	}
	for i, sys := range sa.MS.Systems {
		if st := sys.Plat.Matcher.Stats(); st.Recalled == 0 {
			t.Fatalf("device %d's matcher recalled nothing (%+v): the memo went untested", i, st)
		}
	}
}

func TestHealCleanTenantRowsUnchanged(t *testing.T) {
	// bolt is pinned to device 1 and never migrates; its result rows
	// must be byte-identical whether or not a neighbor's device fails
	// and the healing stack rearranges everything around it. wisp does
	// migrate — its rows must also be unchanged, because the replica is
	// an exact copy of the shard it left.
	_, healed := healWindow(t, 7, nil)
	_, calm := healWindow(t, 7, func(c *Config) {
		c.Heal, c.Migrate, c.FailAt = false, false, 0
	})
	digests := func(rep *Report) map[string]TenantReport {
		m := map[string]TenantReport{}
		for _, tr := range rep.Tenants {
			m[tr.Name] = tr
		}
		return m
	}
	h, c := digests(healed), digests(calm)
	if len(healed.Migrations) == 0 {
		t.Fatal("the healed window migrated nothing; the invariance test is vacuous")
	}
	for _, name := range []string{"bolt", "wisp"} {
		if h[name].Rejected != 0 || c[name].Rejected != 0 {
			t.Fatalf("%s rejected queries (healed %d, calm %d); digests are not comparable",
				name, h[name].Rejected, c[name].Rejected)
		}
		if h[name].RowDigest != c[name].RowDigest {
			t.Fatalf("%s row digest changed under the neighbor's failure: %x vs %x",
				name, h[name].RowDigest, c[name].RowDigest)
		}
	}
}

func TestHealConfigValidation(t *testing.T) {
	base := Config{
		SF: 0.002, Devices: 1, Window: 10 * sim.Millisecond, Seed: 1,
		Tenants: []TenantConfig{{Name: "a", Workload: "qpoint", RateQPS: 10}},
	}
	mig := base
	mig.Migrate = true
	mig.Heal = true
	if _, err := New(mig); err == nil {
		t.Fatal("Migrate on a single device must be rejected")
	}
	noHeal := base
	noHeal.Migrate = true
	if _, err := New(noHeal); err == nil {
		t.Fatal("Migrate without Heal must be rejected")
	}
	wlog := base
	wlog.Tenants = []TenantConfig{{Name: "a", Workload: "wlog", RateQPS: 10}}
	if _, err := New(wlog); err == nil {
		t.Fatal("wlog workload without WeblogBytes must be rejected")
	}
	badFail := base
	badFail.FailAt = sim.Millisecond
	badFail.FailDevice = 3
	if _, err := New(badFail); err == nil {
		t.Fatal("FailDevice out of range must be rejected")
	}
}
