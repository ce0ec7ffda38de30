package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"biscuit/internal/bench"
)

// TestExperimentsDocIsTheBaselines closes the chain doc ← baseline ←
// gate ← tree for every experiment: EXPERIMENTS.md must carry,
// verbatim, what each experiment's renderer makes of the blessed
// baselines/BENCH_<name>.json that `make benchgate` holds the tree to.
// After a re-bless, paste each block this test prints over its table.
func TestExperimentsDocIsTheBaselines(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range experiments {
		raw, err := os.ReadFile("../../baselines/BENCH_" + e.name + ".json")
		if err != nil {
			t.Error(err)
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		r, err := e.decode(dec)
		if err != nil {
			t.Errorf("baselines/BENCH_%s.json does not decode as its result type: %v", e.name, err)
			continue
		}
		var block bytes.Buffer
		r.WriteMarkdown(&block)
		if !bytes.Contains(doc, block.Bytes()) {
			t.Errorf("EXPERIMENTS.md does not contain the %s block of the blessed baseline; paste:\n\n%s", e.name, &block)
		}
	}
}

// TestEveryExperimentHasABaseline keeps `make benchgate` (which runs
// -exp all) exact for every experiment: one added to the list without a
// blessed baselines/BENCH_<name>.json fails here, not silently ungated.
func TestEveryExperimentHasABaseline(t *testing.T) {
	for _, e := range experiments {
		if _, err := os.Stat("../../baselines/BENCH_" + e.name + ".json"); err != nil {
			t.Errorf("experiment %q has no baseline: %v", e.name, err)
		}
	}
}

func TestUnknownExperimentListsAblations(t *testing.T) {
	var stderr bytes.Buffer
	if code := cli([]string{"-exp", "table3,nosuch"}, io.Discard, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if msg := stderr.String(); !strings.Contains(msg, `"nosuch"`) || !strings.Contains(msg, "ablations") {
		t.Errorf("diagnostic must name the bad experiment and list ablations among the valid ones:\n%s", msg)
	}
}

// TestStatsCoverServingArrays: -stats dumps every drive the serving
// arrays build, not only newSystemWith platforms. The quick servecurve
// serves one window per (devices, policy) in {1, 2} × {wfq, edf}, six
// drives in all. Each drive's matcher line counts pages its automata
// judged and pages its memo recalled: every window repeats its queries.
// Each drive's heaps back only what they handed out: the system heap
// holds the loaded module images, and the user heap, which no shipped
// SSDlet allocates from, still holds only its first chunk's header and
// links (32 bytes) of its capacity. Each drive's FTL has made only the
// l2p segments and block maps its pages use, fewer than its geometry
// holds, and one process line gives the run's peak memory.
func TestStatsCoverServingArrays(t *testing.T) {
	t.Cleanup(func() { bench.OnSystem = nil })
	var stdout, stderr bytes.Buffer
	if code := cli([]string{"-exp", "servecurve", "-quick", "-stats"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, &stderr)
	}
	if n := strings.Count(stdout.String(), "-- platform "); n != 2*6 {
		t.Fatalf("%d platform counter/latency headers, want 12 (6 drives):\n%s", n, &stdout)
	}
	if !strings.Contains(stdout.String(), "-- platform 6 latencies") || strings.Contains(stdout.String(), "-- platform 7 ") {
		t.Fatalf("want blocks for platforms 1..6:\n%s", &stdout)
	}
	memo := regexp.MustCompile(`(?m)^   match\.pages +\{Judged:[1-9]\d* Recalled:[1-9]\d* ScannedBytes:[1-9]\d*\}$`)
	if n := len(memo.FindAllString(stdout.String(), -1)); n != 6 {
		t.Fatalf("%d match.pages lines with pages judged and recalled, want 6:\n%s", n, &stdout)
	}
	arenas := regexp.MustCompile(`(?m)^   mem\.arenas +system=[1-9]\d*/[1-9]\d* user=32/[1-9]\d*$`)
	if n := len(arenas.FindAllString(stdout.String(), -1)); n != 6 {
		t.Fatalf("%d mem.arenas lines with an untouched user heap, want 6:\n%s", n, &stdout)
	}
	maps := regexp.MustCompile(`(?m)^   ftl\.maps +l2p=(\d+)/(\d+) rev=(\d+)/(\d+)$`)
	lines := maps.FindAllStringSubmatch(stdout.String(), -1)
	if len(lines) != 6 {
		t.Fatalf("%d ftl.maps lines, want 6:\n%s", len(lines), &stdout)
	}
	for _, m := range lines {
		var v [4]int
		for i := range v {
			v[i], _ = strconv.Atoi(m[i+1])
		}
		if v[0] == 0 || v[0] >= v[1] || v[2] == 0 || v[2] >= v[3] {
			t.Errorf("%q: want some but not all l2p segments and block maps made", m[0])
		}
	}
	if !regexp.MustCompile(`(?m)^-- process peak memory: rss=\S.* go_heap=[1-9]\d* kB$`).MatchString(stdout.String()) {
		t.Errorf("no process peak-memory line:\n%s", &stdout)
	}
}
