// Package tracestat is the offline analyzer over the simulator's
// Perfetto trace exports: per-track span aggregates, counter-track
// statistics, and a trace-derived critical path — the per-layer,
// per-operator attribution of a query's sim time to the deepest busy
// layer of the NVMe→FTL→NAND stack at every instant.
//
// The analyzer consumes the JSON the trace package writes (and nothing
// else: it is a tool over the repo's own byte-deterministic format, not
// a general Chrome-trace reader), and Parse is also that format's
// checker: nothing that breaks its rules is analyzed. All derived
// numbers are integer nanoseconds reconstructed exactly from the
// exported microsecond fixed-point timestamps, so analyses of
// byte-identical traces are themselves byte-identical.
package tracestat

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// rawEvent mirrors one exported trace event; unknown fields are
// ignored so the reader stays compatible with span args. Ts and Dur
// are pointers so a missing field is told apart from zero, and ID stays
// raw so a malformed id is a violation rather than a decode abort.
type rawEvent struct {
	Name string          `json:"name"`
	Ph   string          `json:"ph"`
	Tid  int             `json:"tid"`
	Ts   *float64        `json:"ts"`  // microseconds, 3 exact decimals
	Dur  *float64        `json:"dur"` // microseconds ('X' only)
	ID   json.RawMessage `json:"id"`  // async pair id ('b'/'e')
	Args json.RawMessage `json:"args"`
}

type rawTrace struct {
	TraceEvents []rawEvent `json:"traceEvents"`
}

// micros converts an exported microsecond timestamp back to the exact
// integer nanoseconds it was printed from (the export writes ns/1000
// with three decimals, so scaling back is lossless modulo float64,
// which holds 2^53 ≫ any sim horizon in µs×1000).
func micros(us float64) int64 { return int64(math.Round(us * 1000)) }

// Span is one closed span ('X', or a matched 'b'/'e' async pair).
type Span struct {
	Track string
	Name  string
	Start int64 // ns
	End   int64 // ns
}

// CounterPoint is one sample of a counter track.
type CounterPoint struct {
	Ts int64 // ns
	V  int64
}

// CounterSeries is one counter track's samples in emission order.
type CounterSeries struct {
	Track  string
	Name   string
	Points []CounterPoint
}

// Trace is a parsed export.
type Trace struct {
	Tracks   []string // by tid-1, registration order
	Spans    []Span   // in start order (stable on the deterministic export)
	Counters []CounterSeries
	Instants int
	End      int64 // max event end time, ns
}

// Parse reads and checks one exported trace. It is the one reader of
// the export format, and the check CI holds every archived trace to:
// an export that breaks a rule yields no *Trace, and the error lists
// every violation, one line each, naming the event's index. The rules:
//
//   - traceEvents is present and non-empty;
//   - every phase is one of M X b e i C;
//   - every tid is ≥ 1, and every non-M event's tid was named by an
//     earlier thread_name;
//   - every non-M event has ts ≥ 0, and every X has dur ≥ 0;
//   - async ids are unsigned integers, and every b has exactly one e,
//     never before it;
//   - every C has an integer args.value, and counter ts never
//     decreases within one (tid, name) series.
func Parse(r io.Reader) (*Trace, error) {
	var raw rawTrace
	dec := json.NewDecoder(r)
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("not valid JSON: %w", err)
	}
	if len(raw.TraceEvents) == 0 {
		return nil, errors.New("traceEvents is missing or empty")
	}
	var errs []error
	bad := func(i int, ev *rawEvent, format string, args ...any) {
		errs = append(errs, fmt.Errorf("event %d (%q): %s", i, ev.Name, fmt.Sprintf(format, args...)))
	}
	t := &Trace{}
	trackName := map[int]string{}
	type open struct {
		idx   int // event index of the 'b'
		track string
		name  string
		start int64
	}
	opens := map[uint64]open{}
	type series struct {
		tid  int
		name string
	}
	ctrIdx := map[series]int{} // -> index into Counters
	for i := range raw.TraceEvents {
		ev := &raw.TraceEvents[i]
		if len(ev.Ph) != 1 || !strings.Contains("MXbeiC", ev.Ph) {
			bad(i, ev, "unknown phase %q", ev.Ph)
			continue
		}
		if ev.Tid < 1 {
			bad(i, ev, "tid %d is not ≥ 1", ev.Tid)
			continue
		}
		if ev.Ph == "M" {
			if ev.Name == "thread_name" {
				var a struct {
					Name string `json:"name"`
				}
				_ = json.Unmarshal(ev.Args, &a) // a nameless thread_name still names its tid
				trackName[ev.Tid] = a.Name
				for len(t.Tracks) < ev.Tid {
					t.Tracks = append(t.Tracks, "")
				}
				t.Tracks[ev.Tid-1] = a.Name
			}
			continue
		}
		track, named := trackName[ev.Tid]
		if !named {
			bad(i, ev, "tid %d has no thread_name metadata", ev.Tid)
		}
		if ev.Ts == nil || *ev.Ts < 0 {
			bad(i, ev, "missing or negative ts")
			continue
		}
		ts := micros(*ev.Ts)
		end := ts
		switch ev.Ph {
		case "X":
			if ev.Dur == nil || *ev.Dur < 0 {
				bad(i, ev, "complete span without a non-negative dur")
				continue
			}
			end = ts + micros(*ev.Dur)
			t.Spans = append(t.Spans, Span{Track: track, Name: ev.Name, Start: ts, End: end})
		case "b", "e":
			id, err := strconv.ParseUint(string(ev.ID), 10, 64)
			if err != nil {
				bad(i, ev, "async id %s is not an unsigned integer", ev.ID)
				continue
			}
			o, isOpen := opens[id]
			switch {
			case ev.Ph == "b" && isOpen:
				bad(i, ev, "async id %d begins again before event %d's begin ends", id, o.idx)
			case ev.Ph == "b":
				opens[id] = open{idx: i, track: track, name: ev.Name, start: ts}
			case !isOpen:
				bad(i, ev, "async end id %d without a begin", id)
			default:
				delete(opens, id)
				t.Spans = append(t.Spans, Span{Track: o.track, Name: o.name, Start: o.start, End: ts})
			}
		case "i":
			t.Instants++
		case "C":
			var a struct {
				Value json.RawMessage `json:"value"`
			}
			_ = json.Unmarshal(ev.Args, &a) // non-object args leave Value empty
			v, err := strconv.ParseInt(string(a.Value), 10, 64)
			if err != nil {
				bad(i, ev, "counter without an integer args.value")
				continue
			}
			key := series{ev.Tid, ev.Name}
			idx, ok := ctrIdx[key]
			if !ok {
				idx = len(t.Counters)
				ctrIdx[key] = idx
				t.Counters = append(t.Counters, CounterSeries{Track: track, Name: ev.Name})
			}
			pts := &t.Counters[idx].Points
			if n := len(*pts); n > 0 && ts < (*pts)[n-1].Ts {
				bad(i, ev, "counter ts %d ns steps back from %d ns on tid %d", ts, (*pts)[n-1].Ts, ev.Tid)
				continue
			}
			*pts = append(*pts, CounterPoint{Ts: ts, V: v})
		}
		if end > t.End {
			t.End = end
		}
	}
	unclosed := make([]open, 0, len(opens))
	for _, o := range opens {
		unclosed = append(unclosed, o)
	}
	sort.Slice(unclosed, func(i, j int) bool { return unclosed[i].idx < unclosed[j].idx })
	for _, o := range unclosed {
		bad(o.idx, &raw.TraceEvents[o.idx], "async begin never ends")
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	sort.SliceStable(t.Spans, func(i, j int) bool { return t.Spans[i].Start < t.Spans[j].Start })
	return t, nil
}

// TrackAgg is the span aggregate of one (track, span name) pair.
type TrackAgg struct {
	Track   string
	Name    string
	Count   int
	TotalNs int64
	MinNs   int64
	MaxNs   int64
}

// Aggregate folds every span into per-(track, name) totals, sorted by
// track then name.
func (t *Trace) Aggregate() []TrackAgg {
	idx := map[string]int{}
	var out []TrackAgg
	for _, sp := range t.Spans {
		key := sp.Track + "\x00" + sp.Name
		i, ok := idx[key]
		if !ok {
			i = len(out)
			idx[key] = i
			out = append(out, TrackAgg{Track: sp.Track, Name: sp.Name, MinNs: math.MaxInt64})
		}
		d := sp.End - sp.Start
		out[i].Count++
		out[i].TotalNs += d
		if d < out[i].MinNs {
			out[i].MinNs = d
		}
		if d > out[i].MaxNs {
			out[i].MaxNs = d
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Track != out[j].Track {
			return out[i].Track < out[j].Track
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// CounterStat summarizes one counter series over [first sample, trace
// end]: extremes plus the time-weighted mean (each sample holds until
// the next, the last until trace end — counter-track semantics).
type CounterStat struct {
	Track     string
	Name      string
	Samples   int
	Min       int64
	Max       int64
	MeanMilli int64 // time-weighted mean ×1000 (integer, deterministic)
	Last      int64
}

// CounterStats summarizes every counter series, in track order.
func (t *Trace) CounterStats() []CounterStat {
	out := make([]CounterStat, 0, len(t.Counters))
	for _, cs := range t.Counters {
		st := CounterStat{Track: cs.Track, Name: cs.Name, Samples: len(cs.Points)}
		if len(cs.Points) == 0 {
			out = append(out, st)
			continue
		}
		var weighted int64 // Σ v·holdNs
		for i, p := range cs.Points {
			if i == 0 || p.V < st.Min {
				st.Min = p.V
			}
			if i == 0 || p.V > st.Max {
				st.Max = p.V
			}
			holdEnd := t.End
			if i+1 < len(cs.Points) {
				holdEnd = cs.Points[i+1].Ts
			}
			weighted += p.V * (holdEnd - p.Ts)
		}
		st.Last = cs.Points[len(cs.Points)-1].V
		if span := t.End - cs.Points[0].Ts; span > 0 {
			st.MeanMilli = weighted * 1000 / span
		} else {
			st.MeanMilli = cs.Points[0].V * 1000
		}
		out = append(out, st)
	}
	return out
}

// Layer depths: at any instant the query's time is attributed to the
// deepest busy layer, so NAND work hides the FTL work that issued it,
// which hides the NVMe command, which hides host CPU — the stack walk
// of the paper's Fig. 1(a) data path.
const (
	layerNone = iota
	LayerHost
	LayerNVMe
	LayerDev
	LayerFTL
	LayerNAND
)

// LayerName names a layer depth.
func LayerName(layer int) string {
	switch layer {
	case LayerHost:
		return "host"
	case LayerNVMe:
		return "nvme"
	case LayerDev:
		return "dev"
	case LayerFTL:
		return "ftl"
	case LayerNAND:
		return "nand"
	}
	return "?"
}

// layerOf classifies a track name. Device namespaces ("ssd0/") strip
// first, so the array case attributes like the single-device one.
func layerOf(track string) int {
	if i := strings.Index(track, "/"); i > 0 && strings.HasPrefix(track, "ssd") {
		track = track[i+1:]
	}
	switch {
	case strings.HasPrefix(track, "nand/"):
		return LayerNAND
	case strings.HasPrefix(track, "ftl/"):
		return LayerFTL
	case strings.HasPrefix(track, "dev/"), strings.HasPrefix(track, "port/"):
		return LayerDev
	case track == "host/nvme":
		return LayerNVMe
	case strings.HasPrefix(track, "host/"):
		return LayerHost
	}
	return layerNone
}

// OpShare is the window time attributed to one operator (span name) at
// one layer.
type OpShare struct {
	Layer string
	Name  string
	Ns    int64
}

// ChainLink is one segment of the critical path: the dominant span and
// its extent.
type ChainLink struct {
	Layer string
	Name  string
	Ns    int64
}

// Breakdown is the critical-path analysis of one query window.
type Breakdown struct {
	QueryName  string
	QueryStart int64
	QueryEnd   int64
	TotalNs    int64 // == QueryEnd - QueryStart; the shares sum to it exactly

	// Layers is the per-layer attribution, deepest first; entries sum to
	// TotalNs exactly (every instant belongs to exactly one layer).
	Layers []OpShare
	// Operators is the per-(layer, span name) attribution, largest
	// share first; also sums to TotalNs exactly.
	Operators []OpShare
	// Chain is the critical path itself: consecutive dominant spans in
	// time order, adjacent same-operator segments merged.
	Chain []ChainLink
	// DeviceNs is the window time the deepest busy layer was on the
	// device side of the NVMe boundary (nvme/dev/ftl/nand) — the
	// trace-derived critical-path total, ≤ TotalNs by construction.
	DeviceNs int64
}

// CriticalPathNth attributes the window of the n-th span (0-based, in
// start order) named rootName (default "sql.query") to the deepest busy
// layer at every instant. Negative n counts from the end, so -1
// analyzes the last such span — e.g. the Biscuit run when a trace
// carries a Conv run's "sql.query" span first. Every instant of the
// window is covered — the root span itself is host work — so the layer
// and operator shares each sum to the window exactly.
func (t *Trace) CriticalPathNth(rootName string, n int) (*Breakdown, error) {
	if rootName == "" {
		rootName = "sql.query"
	}
	var roots []*Span
	for i := range t.Spans {
		if t.Spans[i].Name == rootName {
			roots = append(roots, &t.Spans[i])
		}
	}
	if len(roots) == 0 {
		return nil, fmt.Errorf("tracestat: no %q span in trace", rootName)
	}
	if n < 0 {
		n += len(roots)
	}
	if n < 0 || n >= len(roots) {
		return nil, fmt.Errorf("tracestat: span %q index %d out of %d", rootName, n, len(roots))
	}
	root := roots[n]
	b := &Breakdown{QueryName: rootName, QueryStart: root.Start, QueryEnd: root.End, TotalNs: root.End - root.Start}

	// Clip layered spans to the window. The root span covers the whole
	// window at the host layer, so coverage is total.
	type clipped struct {
		start, end int64
		layer      int
		name       string
		seq        int
	}
	var spans []clipped
	for i := range t.Spans {
		sp := &t.Spans[i]
		layer := layerOf(sp.Track)
		if layer == layerNone {
			continue
		}
		s, e := sp.Start, sp.End
		if s < root.Start {
			s = root.Start
		}
		if e > root.End {
			e = root.End
		}
		if s >= e && !(sp == root) {
			continue
		}
		spans = append(spans, clipped{start: s, end: e, layer: layer, name: sp.Name, seq: i})
	}

	// Sweep the boundary set; in each elementary interval the dominant
	// span is the deepest layer, ties to the latest start (the most
	// recently issued op), then emission order — all deterministic.
	bounds := make([]int64, 0, 2*len(spans))
	for _, c := range spans {
		bounds = append(bounds, c.start, c.end)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	uniq := bounds[:0]
	for i, v := range bounds {
		if i == 0 || v != uniq[len(uniq)-1] {
			uniq = append(uniq, v)
		}
	}
	layerNs := map[int]int64{}
	opNs := map[string]int64{}
	opLayer := map[string]int{}
	var opOrder []string
	for i := 0; i+1 < len(uniq); i++ {
		lo, hi := uniq[i], uniq[i+1]
		best := -1
		for j := range spans {
			c := &spans[j]
			if c.start > lo || c.end < hi {
				continue
			}
			if best < 0 {
				best = j
				continue
			}
			d := &spans[best]
			if c.layer != d.layer {
				if c.layer > d.layer {
					best = j
				}
			} else if c.start != d.start {
				if c.start > d.start {
					best = j
				}
			} else if c.seq > d.seq {
				best = j
			}
		}
		if best < 0 {
			continue // outside every span: cannot happen, root covers all
		}
		c := &spans[best]
		d := hi - lo
		layerNs[c.layer] += d
		key := LayerName(c.layer) + "\x00" + c.name
		if _, ok := opNs[key]; !ok {
			opOrder = append(opOrder, key)
			opLayer[key] = c.layer
		}
		opNs[key] += d
		if n := len(b.Chain); n > 0 && b.Chain[n-1].Layer == LayerName(c.layer) && b.Chain[n-1].Name == c.name {
			b.Chain[n-1].Ns += d
		} else {
			b.Chain = append(b.Chain, ChainLink{Layer: LayerName(c.layer), Name: c.name, Ns: d})
		}
	}

	for layer := LayerNAND; layer >= LayerHost; layer-- {
		if ns, ok := layerNs[layer]; ok {
			b.Layers = append(b.Layers, OpShare{Layer: LayerName(layer), Ns: ns})
			if layer >= LayerNVMe {
				b.DeviceNs += ns
			}
		}
	}
	for _, key := range opOrder {
		parts := strings.SplitN(key, "\x00", 2)
		b.Operators = append(b.Operators, OpShare{Layer: parts[0], Name: parts[1], Ns: opNs[key]})
	}
	sort.SliceStable(b.Operators, func(i, j int) bool {
		if b.Operators[i].Ns != b.Operators[j].Ns {
			return b.Operators[i].Ns > b.Operators[j].Ns
		}
		if b.Operators[i].Layer != b.Operators[j].Layer {
			return b.Operators[i].Layer < b.Operators[j].Layer
		}
		return b.Operators[i].Name < b.Operators[j].Name
	})
	return b, nil
}
