// Command benchgate compares fresh biscuitbench -json output against
// committed BENCH_*.json baselines and fails (exit 1) on any difference
// — the CI gate that keeps the simulator's deterministic surface from
// eroding silently (`make benchgate`).
//
// Usage:
//
//	benchgate [-v] <baselineDir> <freshDir>
//	benchgate -bless <baselineDir> <freshDir>    # re-bless: copy fresh over baselines
//
// Every BENCH_*.json in baselineDir must have a counterpart in
// freshDir. The two JSON trees are walked together under one rule:
// every leaf — simulated times, op counts, row and dispatch digests,
// latency percentiles — must match exactly, and so must the structure
// (missing or extra fields, different array lengths, changed types):
// evolving the schema is a conscious re-bless, never an accident.
// Nothing here reads the host clock; wall time is benchmark/'s job
// (see benchmark/README.md).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its inputs and outputs as parameters so the test can
// drive the whole command; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	verbose := fs.Bool("v", false, "print every compared file")
	bless := fs.Bool("bless", false, "copy fresh files over the baselines instead of comparing")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchgate [-v|-bless] <baselineDir> <freshDir>")
		return 2
	}
	baseDir, freshDir := fs.Arg(0), fs.Arg(1)

	bases, err := filepath.Glob(filepath.Join(baseDir, "BENCH_*.json"))
	if err != nil || len(bases) == 0 {
		fmt.Fprintf(stderr, "benchgate: no BENCH_*.json baselines in %s\n", baseDir)
		return 2
	}
	sort.Strings(bases)

	var g gate
	for _, basePath := range bases {
		name := filepath.Base(basePath)
		freshPath := filepath.Join(freshDir, name)
		if *bless {
			if err := copyFile(freshPath, basePath); err != nil {
				fmt.Fprintf(stderr, "benchgate: bless %s: %v\n", name, err)
				return 1
			}
			fmt.Fprintf(stdout, "blessed %s <- %s\n", basePath, freshPath)
			continue
		}
		base, err := loadJSON(basePath)
		if err != nil {
			fmt.Fprintf(stderr, "benchgate: %v\n", err)
			return 2
		}
		fresh, err := loadJSON(freshPath)
		if err != nil {
			g.failf(name, "", "fresh output missing or unreadable: %v", err)
			continue
		}
		if *verbose {
			fmt.Fprintf(stdout, "comparing %s\n", name)
		}
		g.compare(name, "$", base, fresh)
	}
	if *bless {
		return 0
	}

	if len(g.failures) > 0 {
		fmt.Fprintf(stderr, "benchgate: %d difference(s) vs committed baselines:\n", len(g.failures))
		for _, f := range g.failures {
			fmt.Fprintf(stderr, "  FAIL %s\n", f)
		}
		fmt.Fprintln(stderr, "if the change is intended, re-bless with `make bless-bench` and commit the new baselines")
		return 1
	}
	fmt.Fprintf(stdout, "benchgate: %d baseline file(s) OK (exact)\n", len(bases))
	return 0
}

type gate struct {
	failures []string
}

func (g *gate) failf(file, path, format string, args ...any) {
	loc := file
	if path != "" {
		loc += " " + path
	}
	g.failures = append(g.failures, loc+": "+fmt.Sprintf(format, args...))
}

// compare walks base and fresh in lockstep and records every place the
// two trees differ.
func (g *gate) compare(file, path string, base, fresh any) {
	switch b := base.(type) {
	case map[string]any:
		f, ok := fresh.(map[string]any)
		if !ok {
			g.failf(file, path, "baseline has an object, fresh has %T", fresh)
			return
		}
		for _, k := range sortedKeys(b) {
			fv, ok := f[k]
			if !ok {
				g.failf(file, path+"."+k, "field present in baseline but missing from fresh output")
				continue
			}
			g.compare(file, path+"."+k, b[k], fv)
		}
		for _, k := range sortedKeys(f) {
			if _, ok := b[k]; !ok {
				g.failf(file, path+"."+k, "new field not in baseline (schema drift; re-bless to accept)")
			}
		}
	case []any:
		f, ok := fresh.([]any)
		if !ok {
			g.failf(file, path, "baseline has an array, fresh has %T", fresh)
			return
		}
		if len(b) != len(f) {
			g.failf(file, path, "array length %d in baseline, %d in fresh", len(b), len(f))
			return
		}
		for i := range b {
			g.compare(file, fmt.Sprintf("%s[%d]", path, i), b[i], f[i])
		}
	default:
		// Leaves: numbers (kept as their literal text, so 64-bit
		// sim times compare digit for digit), strings, bools, null.
		if base != fresh {
			g.failf(file, path, "baseline %v (%T) != fresh %v (%T)", base, base, fresh, fresh)
		}
	}
}

func sortedKeys(m map[string]any) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func loadJSON(path string) (any, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return v, nil
}

func copyFile(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}
