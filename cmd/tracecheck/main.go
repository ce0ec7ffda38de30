// Command tracecheck validates a Chrome/Perfetto trace produced by
// -trace flags before CI archives it: the file must be well-formed
// JSON, hold a non-empty traceEvents array of known phases, name every
// thread it emits events on, balance every async begin with exactly
// one end, and keep every counter track well-formed (named tid, an
// args.value, non-decreasing per-series timestamps). It exists so
// `make tracesmoke` and `make telemetrysmoke` fail loudly on a
// malformed export instead of archiving a file Perfetto will reject.
//
// Every violation in every file is reported, and any violation makes
// the exit status non-zero.
//
//	tracecheck [-counters] trace.json [more.json ...]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
)

type event struct {
	Ph   string         `json:"ph"`
	Tid  int            `json:"tid"`
	Name string         `json:"name"`
	Ts   *float64       `json:"ts"`
	Dur  *float64       `json:"dur"`
	ID   any            `json:"id"` // numeric in our exporter; string also legal
	Args map[string]any `json:"args"`
}

type traceFile struct {
	TraceEvents []event `json:"traceEvents"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracecheck: ")
	wantCounters := flag.Bool("counters", false, "additionally require at least one counter ('C') event per file")
	flag.Parse()
	if flag.NArg() == 0 {
		log.Fatal("usage: tracecheck [-counters] trace.json [more.json ...]")
	}
	bad := false
	for _, path := range flag.Args() {
		for _, issue := range check(path, *wantCounters) {
			bad = true
			fmt.Fprintf(os.Stderr, "tracecheck: %s: %s\n", path, issue)
		}
	}
	if bad {
		os.Exit(1)
	}
}

// check validates one file and returns every violation found; an empty
// slice means the file passed (and its summary line was printed).
func check(path string, wantCounters bool) (issues []string) {
	bad := func(format string, args ...any) {
		issues = append(issues, fmt.Sprintf(format, args...))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		bad("%v", err)
		return issues
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		bad("not valid JSON: %v", err)
		return issues
	}
	if len(tf.TraceEvents) == 0 {
		bad("traceEvents is empty")
		return issues
	}

	named := map[int]string{}       // tid -> thread_name from 'M' metadata
	asyncOpen := map[string]int{}   // async id -> open count
	ctrLast := map[string]float64{} // per (tid, counter name) last ts
	spans, instants, counters := 0, 0, 0
	for i, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				if n, ok := ev.Args["name"].(string); ok {
					named[ev.Tid] = n
				}
			}
			continue
		case "X":
			if ev.Dur == nil || *ev.Dur < 0 {
				bad("event %d (%s): complete span without non-negative dur", i, ev.Name)
			}
			spans++
		case "b":
			asyncOpen[fmt.Sprint(ev.ID)]++
			spans++
		case "e":
			id := fmt.Sprint(ev.ID)
			asyncOpen[id]--
			if asyncOpen[id] < 0 {
				bad("event %d: async end %q without a begin", i, id)
				asyncOpen[id] = 0
			}
		case "i":
			instants++
		case "C":
			counters++
			if ev.Args == nil {
				bad("event %d (%s): counter without args.value", i, ev.Name)
			} else if _, ok := ev.Args["value"].(float64); !ok {
				bad("event %d (%s): counter args.value missing or not numeric", i, ev.Name)
			}
			if ev.Ts != nil {
				key := fmt.Sprintf("%d\x00%s", ev.Tid, ev.Name)
				if last, ok := ctrLast[key]; ok && *ev.Ts < last {
					bad("event %d (%s): counter ts %.3f decreases below %.3f on tid %d",
						i, ev.Name, *ev.Ts, last, ev.Tid)
				} else {
					ctrLast[key] = *ev.Ts
				}
			}
		default:
			bad("event %d (%s): unknown phase %q", i, ev.Name, ev.Ph)
			continue
		}
		if ev.Ts == nil {
			bad("event %d (%s): missing ts", i, ev.Name)
			continue
		}
		if *ev.Ts < 0 {
			bad("event %d (%s): negative ts", i, ev.Name)
		}
		if _, ok := named[ev.Tid]; !ok {
			bad("event %d (%s): tid %d has no thread_name metadata", i, ev.Name, ev.Tid)
		}
	}
	for id, n := range asyncOpen {
		if n != 0 {
			bad("async span %q left open (%d unmatched begins)", id, n)
		}
	}
	if wantCounters && counters == 0 {
		bad("no counter events (run was expected to be sampled)")
	}
	if len(issues) == 0 {
		fmt.Printf("%s: ok — %d events (%d spans, %d instants, %d counters) on %d tracks\n",
			path, len(tf.TraceEvents), spans, instants, counters, len(named))
	}
	return issues
}
