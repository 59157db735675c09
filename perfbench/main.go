// Command perfbench is the repository's benchmark: four workloads that
// together cover the fault-injection stack end to end, each run for a
// fixed wall-clock budget, every output checked.
//
//	bash perfbench/run.sh --workload campaign --seed 7 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of one workload over
// the repetitions that fit in --seconds; each repetition timing is the
// best repetition's, set-up and heap the median:
//
//	setup_s           wall time of the smallest complete run of the
//	                  workload's path (a one-trial campaign, a one-instant
//	                  verification); several samples before every
//	                  repetition
//	time_to_result_s  wall time from the call (or POST /campaigns) to the
//	                  result and its digest
//	trials_per_s      trials (placements, for certify) per second of
//	                  time_to_result_s net of setup_s
//	cpu_s             host CPU seconds of one repetition (rusage; for
//	                  sharded it includes the worker process)
//	retained_heap_mb  live heap after a repetition and a forced GC, with
//	                  the result still referenced
//
// With --trace 1 it runs every layer probe once, records spans around
// the calls into each layer and reports the per-layer metrics listed in
// BENCHMARK.json, the self time per layer and the tracing overhead.
// README.md in this directory names the internal seams the probes use.
//
// The last line of standard output is the JSON result the contract in
// BENCHMARK.json asks for; the line before it is the full report
// (provenance, per-metric sample statistics, deterministic counts).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/benchjson"
	"repro/internal/des"
)

// sizes is how much work one repetition does. full is what the
// benchmark runs; the tests run a smoke-sized copy.
type sizes struct {
	// Trials is the campaign size of campaign, campaign-telemetry and
	// sharded; TracedTrials the traced run's, large enough that the 90th
	// percentile of its lease-sized spans has ten spans beyond it.
	Trials       int
	TracedTrials int
	// Quantum is certify's placement spacing.
	Quantum des.Time
	// CertDigest pins certify's certificate digest ("" = only require
	// every repetition to agree).
	CertDigest string
	// SetupReps is the number of set-up samples taken before each
	// repetition.
	SetupReps int
	// MinReps is the repetition count a run makes even when they
	// overrun the time budget.
	MinReps int
	// Checks is the number of records per campaign re-run from scratch.
	Checks int
	// Sessions is the number of ForkSession set-ups the traced run
	// times; Replays and EventReplays the records it replays through a
	// plain and an event-collecting session.
	Sessions     int
	Replays      int
	EventReplays int
}

// full sizes the workloads for best-of-N timing (see measure): a
// repetition takes 0.1 s (campaign) to 1.5 s (certify) on a 2-vCPU
// Xeon VM, long against timer and scheduler jitter and short against
// the host's contention phases, so a 25 s run holds 15 to 150 of them.
var full = sizes{
	Trials:       10_000,
	TracedTrials: 60_000,
	Quantum:      10 * des.Microsecond,
	CertDigest:   "fnv1a:94469d93d1329441",
	SetupReps:    5,
	MinReps:      3,
	Checks:       32,
	Sessions:     20,
	Replays:      10_000,
	EventReplays: 2_000,
}

// workload is one named entry of BENCHMARK.json.
type workload struct {
	name string
	why  string
	open func(seed uint64, sz sizes) (bench, error)
}

var workloads = []workload{
	{"campaign",
		"serial classification-only campaign via nlft.RunCampaign; cutoff on, so CPU dispatch and snapshot restore dominate",
		func(seed uint64, sz sizes) (bench, error) { return &campaignBench{seed: seed, sz: sz}, nil }},
	{"campaign-telemetry",
		"the same trials with Telemetry on: cutoff off today, every suffix simulated, per-trial registry merges",
		func(seed uint64, sz sizes) (bench, error) {
			return &campaignBench{seed: seed, sz: sz, telemetry: true}, nil
		}},
	{"certify",
		"nlft.VerifyExhaustive at 10us quantum: planned placements, mostly suffix-memo hits; seed-free, --seed is ignored",
		func(_ uint64, sz sizes) (bench, error) { return &certifyBench{sz: sz}, nil }},
	{"sharded",
		"the campaign spec over loopback HTTP to a shard.Coordinator with one single-slot worker process: lease, frames, fold",
		newShardedBench},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	if base := os.Getenv(workerEnv); base != "" {
		os.Exit(workerMain(base, os.Getenv(workerTraceEnv) == "1", os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: campaign, campaign-telemetry, certify or sharded")
	seed := fs.Uint64("seed", 1, "workload seed")
	secs := fs.Float64("seconds", 10, "wall-clock budget of the measured repetitions")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	traceOut := fs.String("trace-out", ".bench_build/traces", "directory the traced run writes its spans to (empty = none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *secs <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	var rep *report
	var err error
	if *trace == 1 {
		rep, err = tracedRun(w, *seed, full, *traceOut)
	} else {
		rep, err = measure(w, *seed, full, time.Duration(*secs*float64(time.Second)), stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := rep.write(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// provenance identifies the host and build a report came from.
type provenance struct {
	benchjson.Header
	CPUModel string `json:"cpu_model"`
	GOOS     string `json:"goos"`
	GOARCH   string `json:"goarch"`
}

func hostProvenance() provenance {
	return provenance{Header: benchjson.NewHeader(), CPUModel: cpuModel(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown"
// where there is none).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// report is one run's outcome. The result line carries each metric's
// reported value; the report line carries everything else.
type report struct {
	Workload   string             `json:"workload"`
	Why        string             `json:"why"`
	Seed       uint64             `json:"seed"`
	Trace      bool               `json:"trace"`
	Provenance provenance         `json:"provenance"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Metrics    map[string]summary `json:"metrics"`
	// Counts are the deterministic per-seed counts: two runs of one
	// seed print identical values.
	Counts map[string]float64 `json:"counts,omitempty"`
	// Checks records what the output checks compared.
	Checks map[string]string `json:"checks,omitempty"`
	// SpansFile is where the traced run wrote its spans.
	SpansFile string `json:"spans_file,omitempty"`
}

func newReport(w workload, seed uint64, traced bool) *report {
	return &report{Workload: w.name, Why: w.why, Seed: seed, Trace: traced,
		Provenance: hostProvenance(), Metrics: make(map[string]summary),
		Checks: make(map[string]string)}
}

// metric records one metric reported as the median of its samples.
func (r *report) metric(name, unit string, samples []float64) {
	r.Metrics[name] = summarize(unit, samples)
}

// add records one metric reported as the given statistic of its
// samples.
func (r *report) add(name, unit string, samples []float64, value float64) {
	s := summarize(unit, samples)
	s.Value = value
	r.Metrics[name] = s
}

// tail records a metric reported as the p-th percentile of its samples.
func (r *report) tail(name, unit string, samples []float64, p float64) {
	r.add(name, unit, samples, percentile(samples, p))
}

// value records a metric measured once.
func (r *report) value(name, unit string, v float64) { r.metric(name, unit, []float64{v}) }

// count records a deterministic count, which is also a metric.
func (r *report) count(name, unit string, v float64) {
	if r.Counts == nil {
		r.Counts = make(map[string]float64)
	}
	r.Counts[name] = v
	r.value(name, unit, v)
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

// write prints the report line and then the result line.
func (r *report) write(out io.Writer) error {
	res := result{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]resultMetric, len(r.Metrics))}
	for name, s := range r.Metrics {
		if s.N == 0 {
			return fmt.Errorf("metric %s has no samples", name)
		}
		res.Metrics[name] = resultMetric{Value: s.Value, Unit: s.Unit}
	}
	enc := json.NewEncoder(out)
	if err := enc.Encode(map[string]*report{"report": r}); err != nil {
		return err
	}
	return enc.Encode(res)
}
