package stats

import "sort"

// Counters is a small named-counter registry for operational events the
// evaluation wants visible alongside its timing results — fault-path
// events in particular (fallbacks engaged, retries absorbed, blocks
// retired). Names are free-form dotted strings ("db.ndp.fallback").
//
// It is deliberately simulation-grade, not production-grade: no atomics
// (the sim kernel serializes all processes) and deterministic snapshot
// order, so counter dumps can be diffed between same-seed runs.
type Counters struct {
	m map[string]int64
}

// NewCounters returns an empty registry.
func NewCounters() *Counters { return &Counters{m: map[string]int64{}} }

// Add increments name by n. A nil registry ignores the call, so
// components can record unconditionally.
func (c *Counters) Add(name string, n int64) {
	if c == nil {
		return
	}
	c.m[name] += n
}

// Get returns the current value of name (0 if never added).
func (c *Counters) Get(name string) int64 {
	if c == nil {
		return 0
	}
	return c.m[name]
}

// NamedCount is one (name, value) pair of a snapshot.
type NamedCount struct {
	Name  string
	Value int64
}

// Snapshot returns all counters sorted by name.
func (c *Counters) Snapshot() []NamedCount {
	if c == nil {
		return nil
	}
	out := make([]NamedCount, 0, len(c.m))
	for k, v := range c.m {
		out = append(out, NamedCount{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
