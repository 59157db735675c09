package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// scenarioOutput splits run's output into the four scenario sections,
// keyed by the section heading's scenario tag ("(i)" … "(iv)").
func scenarioOutput(t *testing.T, out string) map[string]string {
	t.Helper()
	sections := map[string]string{}
	for _, sec := range strings.Split(out, "=== Figure 3 ")[1:] {
		tag, _, _ := strings.Cut(sec, " ")
		sections[tag] = sec
	}
	if len(sections) != 4 {
		t.Fatalf("found %d scenario sections, want 4:\n%s", len(sections), out)
	}
	return sections
}

// TestRunScenarios replays the four Figure 3 scenarios and checks that
// every one masks its fault and that the printed stream shows the
// mechanism that did it.
func TestRunScenarios(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "", ""); err != nil {
		t.Fatal(err)
	}
	sections := scenarioOutput(t, buf.String())
	for tag, sec := range sections {
		if !strings.Contains(sec, "delivered: [500500] (expected") {
			t.Errorf("scenario %s did not deliver [500500]:\n%s", tag, sec)
		}
	}
	if !strings.Contains(sections["(ii)"], "vote              fig3-ii T majority found") {
		t.Errorf("scenario (ii) has no majority vote:\n%s", sections["(ii)"])
	}
	for _, tag := range []string{"(iii)", "(iv)"} {
		if !strings.Contains(sections[tag], "error-detected") {
			t.Errorf("scenario %s has no error-detected record:\n%s", tag, sections[tag])
		}
	}
}

// TestRunPrintsTheExportedStream: the printed event lines and the
// -trace-out JSONL are one stream, record for record.
func TestRunPrintsTheExportedStream(t *testing.T) {
	dir := t.TempDir()
	traceOut := filepath.Join(dir, "trace.jsonl")
	var buf bytes.Buffer
	if err := run(&buf, traceOut, filepath.Join(dir, "metrics.json")); err != nil {
		t.Fatal(err)
	}
	var printed []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "    [") {
			printed = append(printed, strings.TrimPrefix(line, "    "))
		}
	}
	f, err := os.Open(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	exported, err := obs.ReadEventsJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(printed) == 0 || len(printed) != len(exported) {
		t.Fatalf("printed %d event lines, exported %d records", len(printed), len(exported))
	}
	for i, ev := range exported {
		if printed[i] != ev.String() {
			t.Errorf("line %d: printed %q, exported %q", i, printed[i], ev.String())
		}
	}
}
