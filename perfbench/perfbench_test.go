package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/des"
)

// smoke runs every path of every workload in a fraction of a second.
var smoke = sizes{
	Trials:       1500,
	TracedTrials: 1500,
	Quantum:      100 * des.Microsecond,
	SetupReps:    2,
	MinReps:      2,
	Checks:       8,
	Sessions:     2,
	Replays:      300,
	EventReplays: 50,
}

// TestMain turns the test binary into the sharded workload's worker
// process when a test re-executes it.
func TestMain(m *testing.M) {
	if base := os.Getenv(workerEnv); base != "" {
		os.Exit(workerMain(base, os.Getenv(workerTraceEnv) == "1", os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// resultLine decodes the result line a report prints.
func resultLine(t *testing.T, r *report) map[string]json.RawMessage {
	t.Helper()
	var out bytes.Buffer
	if err := r.write(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// checkResult requires the result line's exact keys and that it carries
// every metric the contract names, with the contract's unit.
func checkResult(t *testing.T, r *report, want map[string]string) {
	t.Helper()
	res := resultLine(t, r)
	var keys []string
	for k := range res {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if !reflect.DeepEqual(keys, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Fatalf("result keys %v", keys)
	}
	var metrics map[string]resultMetric
	if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(want) {
		t.Errorf("%d metrics, contract names %d", len(metrics), len(want))
	}
	for name, unit := range want {
		m, ok := metrics[name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", name)
		case m.Unit != unit:
			t.Errorf("metric %s unit %q, contract %q", name, m.Unit, unit)
		}
	}
	if r.Failed != 0 || string(res["correct"]) != "true" {
		t.Errorf("%d of %d operations failed: %v", r.Failed, r.Attempted, r.Checks)
	}
}

func TestContractMatchesCode(t *testing.T) {
	doc := loadBenchmarkJSON(t)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, code {%s %s}", i, doc.Workloads[i], w.name, w.why)
		}
	}
}

func TestEndToEndSmoke(t *testing.T) {
	doc := loadBenchmarkJSON(t)
	want := make(map[string]string)
	for _, m := range doc.EndToEnd {
		want[m.Name] = m.Unit
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := measure(w, 3, smoke, 0, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, r, want)
			for name, s := range r.Metrics {
				if s.N < smoke.MinReps || !(s.Value > 0) {
					t.Errorf("%s: %d samples, value %v", name, s.N, s.Value)
				}
			}
		})
	}
}

// TestTracedCountsRepeat runs the traced probes once per workload on
// one seed: every run reports every per-layer metric of the contract,
// and the deterministic counts repeat exactly, whichever workload's
// untraced reference the run also made.
func TestTracedCountsRepeat(t *testing.T) {
	doc := loadBenchmarkJSON(t)
	want := make(map[string]string)
	for _, m := range doc.PerLayer {
		want[m.Name] = m.Unit
	}
	var first *report
	for _, w := range workloads {
		r, err := tracedRun(w, 11, smoke, "")
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, r, want)
		if first == nil {
			first = r
			continue
		}
		if len(r.Counts) == 0 || !reflect.DeepEqual(first.Counts, r.Counts) {
			t.Errorf("%s: counts differ from %s's on one seed:\n%v\n%v", w.name, first.Workload, r.Counts, first.Counts)
		}
		// Allocation counts repeat to within map-growth noise (about 1e-4
		// here; the race detector's random sync.Pool drops add more).
		for _, name := range []string{"fault.allocs_per_trial", "fault.telemetry.allocs_per_trial"} {
			x, y := first.Metrics[name].Value, r.Metrics[name].Value
			if d := (x - y) / x; d > 1e-2 || d < -1e-2 {
				t.Errorf("%s: %s %v, %s's %v", w.name, name, y, first.Workload, x)
			}
		}
	}
}

func TestExclusiveQuartiles(t *testing.T) {
	// Expected values from Python 3.11 statistics.quantiles(data, n=4).
	for _, tc := range []struct{ data, want []float64 }{
		{[]float64{3, 1}, []float64{0.5, 2, 3.5}},
		{[]float64{1, 2, 4}, []float64{1, 2, 4}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []float64{2.75, 5.5, 8.25}},
		{[]float64{0.5, 0.25, 0.125, 2, 8, 1, 3}, []float64{0.25, 1, 3}},
	} {
		s := summarize("", tc.data)
		if got := []float64{s.Q1, s.Median, s.Q3}; !reflect.DeepEqual(got, tc.want) {
			t.Errorf("quartiles of %v = %v, want %v", tc.data, got, tc.want)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"},
		{"--workload", "campaign", "--trace", "2"},
		{"--workload", "campaign", "--seconds", "0"},
		{"--bogus"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, io.Discard); code != 2 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q, want 2 and none", args, code, out.String())
		}
	}
}
