package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"biscuit/internal/sim"
	"biscuit/internal/trace"
)

// writeExport records two "sql.query" windows — a 1000 ns one with an
// NVMe command under it, then a 500 ns one whose first 400 ns are NAND
// reads — and writes the export into dir.
func writeExport(t *testing.T, dir string) string {
	t.Helper()
	env := sim.NewEnv()
	tr := trace.New(env)
	qTk := tr.Track("host/query")
	nvmeTk := tr.Track("host/nvme")
	nandTk := tr.Track("nand/ch0/w0")
	env.Spawn("script", func(p *sim.Proc) {
		q := tr.Begin(qTk, "sql.query")
		p.Sleep(100)
		cmd := tr.BeginAsync(nvmeTk, "nvme.read")
		p.Sleep(500)
		cmd.End()
		p.Sleep(400)
		q.End()

		q = tr.Begin(qTk, "sql.query")
		rd := tr.Begin(nandTk, "nand.read")
		p.Sleep(400)
		rd.End()
		p.Sleep(100)
		q.End()
	})
	env.Run()
	path := filepath.Join(dir, "ok.json")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func run(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = cli(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestValidExportPrintsAggregates(t *testing.T) {
	ok := writeExport(t, t.TempDir())
	code, out, errs := run(ok)
	if code != 0 || errs != "" {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
	for _, want := range []string{
		"== " + ok + ": 3 tracks, 4 spans, 0 instants, 0 counter series, end 1.5us",
		"host/nvme                    nvme.read                       1          500ns          500ns          500ns",
		"host/query                   sql.query                       2          1.5us          500ns            1us",
		"nand/ch0/w0                  nand.read                       1          400ns          400ns          400ns",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("stdout lacks %q:\n%s", want, out)
		}
	}
}

// TestInvalidFileReportedValidStillAnalyzed: a violation names its file
// on stderr, the valid file next to it is still analyzed, and the exit
// status is 1.
func TestInvalidFileReportedValidStillAnalyzed(t *testing.T) {
	dir := t.TempDir()
	ok := writeExport(t, dir)
	bad := filepath.Join(dir, "bad.json")
	body := `{"traceEvents":[{"ph":"M","name":"thread_name","tid":1,"args":{"name":"host/query"}},` +
		`{"ph":"e","name":"read","tid":1,"ts":7,"id":9}]}`
	if err := os.WriteFile(bad, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errs := run(bad, ok)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if want := "tracestat: " + bad + ": event 1 (\"read\"): async end id 9 without a begin"; !strings.Contains(errs, want) {
		t.Fatalf("stderr %q lacks %q", errs, want)
	}
	if strings.Contains(out, bad) || !strings.Contains(out, "== "+ok+":") {
		t.Fatalf("stdout must report only the valid file:\n%s", out)
	}
}

func TestCritLastRoot(t *testing.T) {
	ok := writeExport(t, t.TempDir())
	code, out, errs := run("-crit", "-nth", "-1", ok)
	if code != 0 || errs != "" {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
	for _, want := range []string{
		`query "sql.query": 500ns (start 1us, end 1.5us); device-side critical path 400ns (80.0%)`,
		"  nand            400ns   80.0%",
		"  host            100ns   20.0%",
		"critical path: 2 segments",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("stdout lacks %q:\n%s", want, out)
		}
	}
}

func TestNoFilesIsUsage(t *testing.T) {
	if code, _, errs := run(); code != 1 || !strings.Contains(errs, "usage:") {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
}
