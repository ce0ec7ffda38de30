package stats

import "testing"

// The Prefixed views are pure name-concatenation over one shared
// registry; these tests pin the edge cases the serving layer leans on:
// overlapping prefixes land in distinct (or deliberately shared)
// names, an empty prefix aliases the root, and snapshots taken
// mid-window stay immutable while a serving window keeps mutating.

func TestPrefixedCountersOverlappingPrefixes(t *testing.T) {
	c := NewCounters()
	a := c.Prefixed("tenant.acme.")
	ab := c.Prefixed("tenant.acme.batch.")
	a.Add("rejected", 1)
	ab.Add("rejected", 10)
	// "tenant.acme." + "batch.rejected" and "tenant.acme.batch." +
	// "rejected" are the same name: concatenation has no separator
	// semantics, so overlapping views deliberately share it.
	a.Add("batch.rejected", 100)
	if got := c.Get("tenant.acme.rejected"); got != 1 {
		t.Fatalf("tenant.acme.rejected = %d, want 1", got)
	}
	if got := c.Get("tenant.acme.batch.rejected"); got != 110 {
		t.Fatalf("tenant.acme.batch.rejected = %d, want 110 (shared by overlap)", got)
	}
	if got := ab.Get("rejected"); got != 110 {
		t.Fatalf("overlapping view Get = %d, want 110", got)
	}
}

func TestPrefixedCountersEmptyPrefix(t *testing.T) {
	c := NewCounters()
	root := c.Prefixed("")
	root.Add("serve.inflight", 2)
	c.Add("serve.inflight", 3)
	if got := c.Get("serve.inflight"); got != 5 {
		t.Fatalf("empty-prefix view does not alias root: %d, want 5", got)
	}
	if got := root.Get("serve.inflight"); got != 5 {
		t.Fatalf("empty-prefix Get = %d, want 5", got)
	}
	nested := root.Prefixed("serve.")
	if got := nested.Get("inflight"); got != 5 {
		t.Fatalf("nesting off an empty prefix = %d, want 5", got)
	}
}

func TestPrefixedCountersNesting(t *testing.T) {
	c := NewCounters()
	v := c.Prefixed("ssd0.").Prefixed("ftl.").Prefixed("gc.")
	v.Add("rounds", 4)
	if got := c.Get("ssd0.ftl.gc.rounds"); got != 4 {
		t.Fatalf("triple-nested prefix = %d, want 4", got)
	}
}

func TestCountersSnapshotStableUnderMutation(t *testing.T) {
	c := NewCounters()
	pv := c.Prefixed("tenant.bolt.")
	pv.Add("admitted", 5)
	pv.Add("rejected", 1)
	snap := c.Snapshot()
	// A serving window keeps mutating through the same view the
	// snapshot was taken over; the snapshot must not move.
	pv.Add("admitted", 100)
	c.Add("tenant.bolt.rejected", 100)
	for _, nc := range snap {
		switch nc.Name {
		case "tenant.bolt.admitted":
			if nc.Value != 5 {
				t.Fatalf("snapshot admitted moved to %d, want 5", nc.Value)
			}
		case "tenant.bolt.rejected":
			if nc.Value != 1 {
				t.Fatalf("snapshot rejected moved to %d, want 1", nc.Value)
			}
		}
	}
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d entries, want 2", len(snap))
	}
}

func TestHistogramsSnapshotStableUnderMutation(t *testing.T) {
	hs := NewHistograms()
	hs.Observe("hostif.read", 1000)
	hs.Observe("hostif.read", 3000)
	snap := hs.Snapshot()
	hs.Observe("hostif.read", 1_000_000) // the window keeps serving
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d entries, want 1", len(snap))
	}
	if got := snap[0].Summary.Count; got != 2 {
		t.Fatalf("snapshot count moved to %d, want 2", got)
	}
	if got := hs.Get("hostif.read").Count(); got != 3 {
		t.Fatalf("live histogram count = %d, want 3", got)
	}
}
