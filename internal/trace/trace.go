// Package trace is a sim-time-native structured tracing subsystem for
// the Biscuit simulator: spans with begin/end virtual timestamps, named
// tracks (one per internal actor — a NAND die, a device core, a port),
// and typed attributes, exported as Chrome trace-event JSON that loads
// directly in Perfetto.
//
// Design constraints, in priority order:
//
//  1. Determinism. A trace is part of a run's observable output: the
//     same seed and fault plan must produce a byte-identical file.
//     Everything is therefore keyed to sim.Time, tracks export in
//     registration order (never map order), and events export in
//     emission order.
//  2. Zero cost when disabled. Every method is safe on a nil *Tracer
//     and returns immediately, so instrumentation sites record
//     unconditionally — no flag checks, no allocation on the disabled
//     path (guarded by BenchmarkSpanDisabled). Attributes attach via
//     fixed-arity Arg/ArgStr chains, never variadics or Sprintf, so a
//     disabled call site stays allocation-free.
//  3. One wall-clock thread. Like the sim kernel that feeds it, a
//     Tracer is not safe for concurrent use; the kernel's serialized
//     processes are its only callers.
package trace

import "biscuit/internal/sim"

// TrackID names one horizontal track of the trace — a "thread" in the
// Chrome trace-event model. Zero is a valid track (the first one
// registered); the zero Tracer-less Span/TrackID values are inert.
type TrackID int32

type arg struct {
	key   string
	num   int64
	str   string
	isStr bool
}

type event struct {
	name  string
	phase byte // 'X' complete, 'i' instant, 'b'/'e' async pair, 'C' counter
	track TrackID
	ts    sim.Time
	dur   sim.Time // 'X': duration (-1 while the span is open); 'C': the sampled value
	id    uint64   // 'b'/'e' pairing id
	args  []arg
}

// state is the event log shared by a root Tracer and every Namespace
// view derived from it: one clock, one track registry, one event
// stream, so a multi-device run exports a single interleaved trace.
type state struct {
	env    *sim.Env
	tracks []string           // registration order == export order
	lookup map[string]TrackID // name -> index into tracks (lookup only)
	events []event
	nextID uint64 // async span id allocator
}

// Tracer accumulates trace events against a sim.Env clock. The zero
// value is not usable; construct with New. A nil *Tracer is the
// "tracing disabled" sink: every method no-ops.
//
// A Tracer is a view onto a shared event log: Namespace derives views
// that prefix track names (e.g. "ssd1/"), which is how an N-device
// array records all devices — and all tenants — into one export.
type Tracer struct {
	st     *state
	prefix string // prepended to every track name registered via this view
}

// New returns an empty tracer clocked by env.
func New(env *sim.Env) *Tracer {
	return &Tracer{st: &state{env: env, lookup: map[string]TrackID{}}}
}

// Namespace returns a view of the same tracer whose track names are
// prefixed with prefix (conventionally ending in "/", e.g. "ssd2/").
// The view shares the clock, track registry and event log, so events
// from every namespace interleave in one export. Namespace of a nil
// tracer is nil; prefixes nest by concatenation.
func (t *Tracer) Namespace(prefix string) *Tracer {
	if t == nil {
		return nil
	}
	return &Tracer{st: t.st, prefix: t.prefix + prefix}
}

// Track returns the id for the named track, registering it on first
// use. Registration order fixes the exported thread_sort_index, so
// components should register tracks at construction time when possible
// to keep related tracks adjacent in the viewer. The view's namespace
// prefix is applied to name before registration.
func (t *Tracer) Track(name string) TrackID {
	if t == nil {
		return 0
	}
	if t.prefix != "" {
		name = t.prefix + name
	}
	st := t.st
	if id, ok := st.lookup[name]; ok {
		return id
	}
	id := TrackID(len(st.tracks))
	st.tracks = append(st.tracks, name)
	st.lookup[name] = id
	return id
}

// Now reports the tracer's current virtual time (0 on a nil tracer).
func (t *Tracer) Now() sim.Time {
	if t == nil {
		return 0
	}
	return t.st.env.Now()
}

// Span is a handle to one in-flight span (or instant, for attaching
// args). It is a small value type: copy freely, store in structs. The
// zero Span — and any Span minted by a nil Tracer — is inert.
type Span struct {
	t   *Tracer
	idx int32
}

// Begin opens a synchronous span on tk. Synchronous spans render as
// nested slices and must strictly nest per track, so they are only
// appropriate on tracks modeling an exclusive resource (a die, a
// core). Use BeginAsync for overlapping lifetimes.
func (t *Tracer) Begin(tk TrackID, name string) Span {
	if t == nil {
		return Span{}
	}
	st := t.st
	idx := int32(len(st.events))
	st.events = append(st.events, event{name: name, phase: 'X', track: tk, ts: st.env.Now(), dur: -1})
	return Span{t: t, idx: idx}
}

// BeginAsync opens an async span on tk: async spans may overlap on one
// track (e.g. many NVMe commands in flight against one queue track).
func (t *Tracer) BeginAsync(tk TrackID, name string) Span {
	if t == nil {
		return Span{}
	}
	st := t.st
	st.nextID++
	idx := int32(len(st.events))
	st.events = append(st.events, event{name: name, phase: 'b', track: tk, ts: st.env.Now(), id: st.nextID})
	return Span{t: t, idx: idx}
}

// Instant records a zero-duration event on tk and returns its handle so
// args can be chained; it needs no End.
func (t *Tracer) Instant(tk TrackID, name string) Span {
	if t == nil {
		return Span{}
	}
	st := t.st
	idx := int32(len(st.events))
	st.events = append(st.events, event{name: name, phase: 'i', track: tk, ts: st.env.Now()})
	return Span{t: t, idx: idx}
}

// Arg attaches an integer attribute. Returns the span for chaining.
func (s Span) Arg(key string, v int64) Span {
	if s.t == nil {
		return s
	}
	ev := &s.t.st.events[s.idx]
	ev.args = append(ev.args, arg{key: key, num: v})
	return s
}

// ArgStr attaches a string attribute. Returns the span for chaining.
func (s Span) ArgStr(key, v string) Span {
	if s.t == nil {
		return s
	}
	ev := &s.t.st.events[s.idx]
	ev.args = append(ev.args, arg{key: key, str: v, isStr: true})
	return s
}

// End closes the span at the tracer's current time. Ending an instant
// or the zero Span is a no-op; spans still open at export time are
// clamped to the export-time clock.
func (s Span) End() {
	if s.t == nil {
		return
	}
	st := s.t.st
	ev := st.events[s.idx]
	switch ev.phase {
	case 'X':
		st.events[s.idx].dur = st.env.Now() - ev.ts
	case 'b':
		st.events = append(st.events, event{name: ev.name, phase: 'e', track: ev.track, ts: st.env.Now(), id: ev.id})
	}
}

// CounterAt records one Perfetto counter sample ('C' phase) of value v
// on tk at the explicit virtual timestamp ts. Unlike spans, counter
// events carry their own timestamp: the telemetry sampler appends a
// whole recorded series at export time, after the simulated work it
// measured. Within one (track, name) series callers must append in
// non-decreasing ts order — tracestat.Parse rejects anything
// else. The value rides the otherwise-unused dur field, so a sample
// costs no arg allocation.
func (t *Tracer) CounterAt(tk TrackID, name string, ts sim.Time, v int64) {
	if t == nil {
		return
	}
	st := t.st
	st.events = append(st.events, event{name: name, phase: 'C', track: tk, ts: ts, dur: sim.Time(v)})
}

// Len reports the number of recorded events (0 on a nil tracer).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.st.events)
}
