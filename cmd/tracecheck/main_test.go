package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The fixtures are traceEvents arrays: a named track (tid 1), then the
// events under test.
const (
	named = `{"ph":"M","name":"thread_name","tid":1,"args":{"name":"host"}}`

	okSpan    = `{"ph":"X","name":"scan","tid":1,"ts":1,"dur":2}`
	okAsync   = `{"ph":"b","name":"read","tid":1,"ts":2,"id":7},{"ph":"e","name":"read","tid":1,"ts":3,"id":7}`
	okInstant = `{"ph":"i","name":"retry","tid":1,"ts":4}`
	okCounter = `{"ph":"C","name":"qd","tid":1,"ts":5,"args":{"value":1}},{"ph":"C","name":"qd","tid":1,"ts":6,"args":{"value":0}}`

	strayEnd     = `{"ph":"e","name":"read","tid":1,"ts":7,"id":9}`
	noValue      = `{"ph":"C","name":"depth","tid":1,"ts":8}`
	backwards    = `{"ph":"C","name":"qd","tid":1,"ts":5.5,"args":{"value":2}}`
	unknownPhase = `{"ph":"Q","name":"odd","tid":1,"ts":9}`
	unnamedTid   = `{"ph":"i","name":"lost","tid":2,"ts":10}`
)

// checkEvents writes the events as a trace file and runs check on it.
func checkEvents(t *testing.T, events ...string) []string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.json")
	body := `{"traceEvents":[` + strings.Join(append([]string{named}, events...), ",") + `]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return check(path, false)
}

func TestValidExportPasses(t *testing.T) {
	if issues := checkEvents(t, okSpan, okAsync, okInstant, okCounter); len(issues) != 0 {
		t.Errorf("valid export reported: %q", issues)
	}
}

// violations pairs each malformed event with the text its report must
// carry; every one follows a valid prefix.
var violations = []struct{ event, want string }{
	{strayEnd, `async end "9" without a begin`},
	{noValue, "counter without args.value"},
	{backwards, "counter ts 5.500 decreases below 6.000 on tid 1"},
	{unknownPhase, `unknown phase "Q"`},
	{unnamedTid, "tid 2 has no thread_name metadata"},
}

func TestEachViolationIsReported(t *testing.T) {
	for _, v := range violations {
		issues := checkEvents(t, okSpan, okAsync, okCounter, v.event)
		if len(issues) != 1 || !strings.Contains(issues[0], v.want) {
			t.Errorf("%s: got %q, want one issue containing %q", v.event, issues, v.want)
		}
	}
}

func TestEveryViolationInAFileIsReported(t *testing.T) {
	events := []string{okSpan, okAsync, okCounter}
	for _, v := range violations {
		events = append(events, v.event)
	}
	issues := checkEvents(t, events...)
	if len(issues) != len(violations) {
		t.Errorf("got %d issues, want %d: %q", len(issues), len(violations), issues)
	}
	for _, v := range violations {
		if !strings.Contains(strings.Join(issues, "\n"), v.want) {
			t.Errorf("no issue contains %q: %q", v.want, issues)
		}
	}
}
