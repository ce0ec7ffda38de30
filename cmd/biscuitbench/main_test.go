package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
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
	if code := cli([]string{"-exp", "table3,nosuch"}, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if msg := stderr.String(); !strings.Contains(msg, `"nosuch"`) || !strings.Contains(msg, "ablations") {
		t.Errorf("diagnostic must name the bad experiment and list ablations among the valid ones:\n%s", msg)
	}
}
