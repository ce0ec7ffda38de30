package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const baseDoc = `{
  "sf": 0.002,
  "points": [
    {"policy": "wfq", "migrate": false, "p99_ns": 1500000, "row_digest": 14046032459333026789},
    {"policy": "edf", "migrate": true, "p99_ns": 1700000, "row_digest": 11019656712449241916}
  ]
}`

// gateDirs writes one BENCH_x.json per directory (fresh is skipped when
// empty) and returns the two directories.
func gateDirs(t *testing.T, base, fresh string) (baseDir, freshDir string) {
	t.Helper()
	baseDir, freshDir = t.TempDir(), t.TempDir()
	if err := os.WriteFile(filepath.Join(baseDir, "BENCH_x.json"), []byte(base), 0o644); err != nil {
		t.Fatal(err)
	}
	if fresh != "" {
		if err := os.WriteFile(filepath.Join(freshDir, "BENCH_x.json"), []byte(fresh), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return baseDir, freshDir
}

func TestGateCompare(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fresh string // baseDoc with one edit; "" = no fresh file
		code  int
		want  string // substring of stderr (stdout when code == 0)
	}{
		{"equal", baseDoc, 0, "1 baseline file(s) OK (exact)"},
		{"equal modulo whitespace and key order",
			`{"points":[{"row_digest":14046032459333026789,"p99_ns":1500000,"migrate":false,"policy":"wfq"},
			 {"policy":"edf","migrate":true,"p99_ns":1700000,"row_digest":11019656712449241916}],"sf":0.002}`,
			0, "OK"},
		{"number drifted", strings.Replace(baseDoc, "1500000", "1500001", 1), 1,
			"BENCH_x.json $.points[0].p99_ns: baseline 1500000"},
		// Adjacent uint64 digests collapse to one float64; the gate
		// must still tell them apart.
		{"digest drifted in the last digit", strings.Replace(baseDoc, "14046032459333026789", "14046032459333026788", 1), 1,
			"$.points[0].row_digest"},
		{"string drifted", strings.Replace(baseDoc, `"edf"`, `"fifo"`, 1), 1, "$.points[1].policy: baseline edf"},
		{"bool drifted", strings.Replace(baseDoc, "true", "false", 1), 1, "$.points[1].migrate"},
		{"field missing", strings.Replace(baseDoc, `"sf": 0.002,`, "", 1), 1, "$.sf: field present in baseline but missing"},
		{"field added", strings.Replace(baseDoc, `"sf": 0.002,`, `"sf": 0.002, "seed": 1,`, 1), 1, "$.seed: new field not in baseline"},
		{"array shorter", `{"sf": 0.002, "points": []}`, 1, "$.points: array length 2 in baseline, 0 in fresh"},
		{"number became string", strings.Replace(baseDoc, "1500000", `"1500000"`, 1), 1, "(json.Number) != fresh 1500000 (string)"},
		{"array became object", `{"sf": 0.002, "points": {}}`, 1, "$.points: baseline has an array"},
		{"object became number", strings.Replace(baseDoc, `{"policy": "wfq", "migrate": false, "p99_ns": 1500000, "row_digest": 14046032459333026789}`, "7", 1), 1,
			"$.points[0]: baseline has an object"},
		{"fresh file missing", "", 1, "BENCH_x.json: fresh output missing or unreadable"},
		{"fresh file not JSON", "{", 1, "BENCH_x.json: fresh output missing or unreadable"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseDir, freshDir := gateDirs(t, baseDoc, tc.fresh)
			var stdout, stderr bytes.Buffer
			code := run([]string{baseDir, freshDir}, &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, tc.code, &stdout, &stderr)
			}
			got := stderr.String()
			if code == 0 {
				got = stdout.String()
			}
			if !strings.Contains(got, tc.want) {
				t.Fatalf("output lacks %q:\n%s", tc.want, got)
			}
		})
	}
}

// TestGateReportsEveryDifference: one run lists all drifted leaves, not
// just the first.
func TestGateReportsEveryDifference(t *testing.T) {
	fresh := strings.NewReplacer("1500000", "1", "1700000", "2").Replace(baseDoc)
	baseDir, freshDir := gateDirs(t, baseDoc, fresh)
	var stdout, stderr bytes.Buffer
	if code := run([]string{baseDir, freshDir}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if n := strings.Count(stderr.String(), "FAIL "); n != 2 {
		t.Fatalf("reported %d failures, want 2:\n%s", n, &stderr)
	}
}

func TestGateBlessRoundTrip(t *testing.T) {
	fresh := strings.Replace(baseDoc, "1500000", "1400000", 1)
	baseDir, freshDir := gateDirs(t, baseDoc, fresh)
	var stdout, stderr bytes.Buffer
	if code := run([]string{baseDir, freshDir}, &stdout, &stderr); code != 1 {
		t.Fatalf("drifted tree passed the gate before bless (exit %d)", code)
	}
	if code := run([]string{"-bless", baseDir, freshDir}, &stdout, &stderr); code != 0 {
		t.Fatalf("bless exit %d: %s", code, &stderr)
	}
	blessed, err := os.ReadFile(filepath.Join(baseDir, "BENCH_x.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(blessed) != fresh {
		t.Fatalf("bless did not copy the fresh file byte for byte")
	}
	stderr.Reset()
	if code := run([]string{"-v", baseDir, freshDir}, &stdout, &stderr); code != 0 {
		t.Fatalf("gate fails after bless (exit %d): %s", code, &stderr)
	}
	if !strings.Contains(stdout.String(), "comparing BENCH_x.json") {
		t.Fatalf("-v did not name the compared file:\n%s", &stdout)
	}
}

func TestGateBlessMissingFresh(t *testing.T) {
	baseDir, freshDir := gateDirs(t, baseDoc, "")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-bless", baseDir, freshDir}, &stdout, &stderr); code != 1 {
		t.Fatalf("bless of a missing fresh file: exit %d, want 1", code)
	}
	if got, _ := os.ReadFile(filepath.Join(baseDir, "BENCH_x.json")); string(got) != baseDoc {
		t.Fatalf("failed bless modified the baseline")
	}
}

func TestGateUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"only-one-dir"}, &stdout, &stderr); code != 2 {
		t.Fatalf("one positional argument: exit %d, want 2", code)
	}
	if code := run([]string{"-tol", "0.1", "a", "b"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown flag accepted: exit %d, want 2", code)
	}
	if code := run([]string{t.TempDir(), t.TempDir()}, &stdout, &stderr); code != 2 {
		t.Fatalf("empty baseline dir: exit %d, want 2", code)
	}
}
