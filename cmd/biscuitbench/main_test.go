package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"biscuit/internal/bench"
)

// TestAblationsDocIsTheBaseline closes the chain doc ← baseline ← gate
// ← tree: EXPERIMENTS.md must carry, verbatim, what printAblations
// makes of the blessed baselines/BENCH_ablations.json that `make
// benchgate` holds the tree to. After a re-bless, paste the output of
// `go run ./cmd/biscuitbench -exp ablations` over the table.
func TestAblationsDocIsTheBaseline(t *testing.T) {
	raw, err := os.ReadFile("../../baselines/BENCH_ablations.json")
	if err != nil {
		t.Fatal(err)
	}
	var a bench.Ablations
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&a); err != nil {
		t.Fatalf("baseline does not decode as bench.Ablations: %v", err)
	}
	var table bytes.Buffer
	printAblations(&table, a)

	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(doc, table.Bytes()) {
		t.Errorf("EXPERIMENTS.md does not contain the ablations table of the blessed baseline:\n%s", &table)
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
