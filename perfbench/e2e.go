package main

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"syscall"
	"time"

	nlft "repro"
	"repro/internal/exhaust"
	"repro/internal/fault"
)

// bench is one workload's end-to-end path. Both methods go through the
// public entry points only (the nlft façade, the shard HTTP API), so a
// refactor behind them needs no benchmark change.
type bench interface {
	// setup runs the smallest complete unit of the workload's path and
	// returns its wall time: everything a full run pays before its
	// first trial, plus one trial.
	setup() (time.Duration, error)
	// rep runs one full repetition and checks its output.
	rep() (repResult, error)
	// checks names the digests the repetitions were checked against.
	checks() map[string]string
}

// repResult is one checked repetition.
type repResult struct {
	ttr  time.Duration // call to result and digest
	cpu  time.Duration // host CPU of the repetition
	work int           // trials or placements
	heap uint64        // live heap bytes after a forced GC, result referenced
}

// measure runs w's repetitions for the budget (at least sz.MinReps),
// each preceded by sz.SetupReps set-up samples, and reports the
// end-to-end metrics.
func measure(w workload, seed uint64, sz sizes, budget time.Duration, logw io.Writer) (*report, error) {
	b, err := w.open(seed, sz)
	if err != nil {
		return nil, err
	}
	r := newReport(w, seed, false)
	var setups []time.Duration
	var reps []repResult
	start := time.Now()
	var last time.Duration
	for n := 0; n < sz.MinReps || time.Since(start)+last <= budget; n++ {
		t := time.Now()
		runtime.GC()
		for i := 0; i < sz.SetupReps; i++ {
			r.Attempted++
			d, err := b.setup()
			if err != nil {
				r.Failed++
				fmt.Fprintf(logw, "perfbench: %s set-up: %v\n", w.name, err)
				continue
			}
			setups = append(setups, d)
		}
		r.Attempted++
		rr, err := b.rep()
		last = time.Since(t)
		if err != nil {
			r.Failed++
			fmt.Fprintf(logw, "perfbench: %s repetition %d: %v\n", w.name, n, err)
			continue
		}
		reps = append(reps, rr)
	}
	if len(setups) == 0 || len(reps) == 0 {
		return nil, fmt.Errorf("%s: no successful repetition (%d of %d operations failed)", w.name, r.Failed, r.Attempted)
	}
	// Contention from other tenants of the host only ever adds time, and
	// it comes in phases of seconds to tens of seconds that can double a
	// repetition's time. So each repetition timing is reported as its
	// best repetition (the fastest time, the highest rate), which tracks
	// the program rather than the neighbours; the report line keeps the
	// median and quartiles of every sample as well. Set-up is the median
	// of its many samples, which is as steady.
	setupS := scaled(setups, time.Second)
	setup := median(sorted(setupS))
	var ttr, tps, cpu, heap []float64
	for _, rr := range reps {
		t := rr.ttr.Seconds()
		ttr = append(ttr, t)
		// Net of set-up; the clamp only matters for smoke-sized runs,
		// whose repetitions are not much longer than a set-up.
		tps = append(tps, float64(rr.work)/(t-min(setup, t/2)))
		cpu = append(cpu, rr.cpu.Seconds())
		heap = append(heap, float64(rr.heap)/(1<<20))
	}
	r.metric("setup_s", "s", setupS)
	r.add("time_to_result_s", "s", ttr, slices.Min(ttr))
	r.add("trials_per_s", "1/s", tps, slices.Max(tps))
	r.add("cpu_s", "s", cpu, slices.Min(cpu))
	r.metric("retained_heap_mb", "MB", heap)
	r.Checks = b.checks()
	return r, nil
}

// stdWorkload is the standard ECC workload every benchmark workload
// runs.
func stdWorkload() nlft.Workload { return nlft.NewStdWorkload(nlft.StdWorkloadConfig{ECC: true}) }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// retainedHeap forces a collection and returns the live heap. The
// caller keeps the result it measures alive across the call.
func retainedHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// campaignBench is the campaign and campaign-telemetry workloads: one
// serial sampled campaign through nlft.RunCampaign.
type campaignBench struct {
	seed      uint64
	sz        sizes
	telemetry bool
	digest    uint64 // the first repetition's; every later one must match
}

func (c *campaignBench) config(trials int) nlft.CampaignConfig {
	return nlft.CampaignConfig{Trials: trials, Seed: c.seed, Parallelism: 1, Telemetry: c.telemetry}
}

func (c *campaignBench) setup() (time.Duration, error) {
	t0 := time.Now()
	res, err := nlft.RunCampaign(stdWorkload(), c.config(1))
	if err != nil {
		return 0, err
	}
	res.Digest()
	return time.Since(t0), nil
}

func (c *campaignBench) rep() (repResult, error) {
	cpu0 := cpuTime()
	t0 := time.Now()
	res, err := nlft.RunCampaign(stdWorkload(), c.config(c.sz.Trials))
	if err != nil {
		return repResult{}, err
	}
	digest := res.Digest()
	rr := repResult{ttr: time.Since(t0), cpu: cpuTime() - cpu0, work: c.sz.Trials}
	if c.digest == 0 {
		c.digest = digest
	}
	if digest != c.digest {
		return rr, fmt.Errorf("campaign digest %#x differs from the first repetition's %#x", digest, c.digest)
	}
	if err := checkCampaign(res, c.sz.Trials, c.sz.Checks); err != nil {
		return rr, err
	}
	rr.heap = retainedHeap()
	runtime.KeepAlive(res)
	return rr, nil
}

func (c *campaignBench) checks() map[string]string {
	return map[string]string{"campaign_digest": fmt.Sprintf("%#x", c.digest)}
}

// checkCampaign verifies a campaign result: the tallies account for
// every trial, a telemetry registry counted every trial, and a fixed
// sample of records re-run from scratch (fault.ScratchRunner, no fork
// machinery) reproduces bit for bit.
func checkCampaign(res *nlft.CampaignResult, trials, checks int) error {
	if len(res.Trials) != trials {
		return fmt.Errorf("%d trial records for %d trials", len(res.Trials), trials)
	}
	total := 0
	for _, o := range fault.AllOutcomes() {
		total += res.Counts[o]
	}
	if total != trials {
		return fmt.Errorf("outcome tallies sum to %d, want %d", total, trials)
	}
	if res.Config.Telemetry {
		if res.Metrics == nil {
			return fmt.Errorf("telemetry campaign has no metrics registry")
		}
		if n := res.Metrics.CounterTotal("campaign.trials"); n != uint64(trials) {
			return fmt.Errorf("registry counted %d trials, want %d", n, trials)
		}
	}
	w := stdWorkload()
	var sr fault.ScratchRunner
	for k := 0; k < checks; k++ {
		i := k * trials / checks
		want := res.Trials[i]
		got, err := sr.RunTrial(w, replaySpec(want), res.Golden)
		if err != nil {
			return fmt.Errorf("scratch re-run of trial %d: %w", i, err)
		}
		if !sameRecord(got, want) {
			return fmt.Errorf("trial %d: scratch re-run %+v differs from campaign record %+v", i, got, want)
		}
	}
	return nil
}

// replaySpec recovers a trial's plan from its record. A kernel-flagged
// record either came from a modelled kernel hit (fail-silent when the
// kernel EDMs detected it, a value failure otherwise) or from a fault
// landing in kernel execution (always fail-silent), and replaying
// either fail-silent case as a detected kernel hit takes the same
// branch, so the re-run is exact.
func replaySpec(rec fault.TrialRecord) fault.TrialSpec {
	return fault.TrialSpec{Fault: rec.Fault, KernelHit: rec.Kernel,
		KernelDetected: rec.Kernel && rec.Outcome == fault.FailSilent}
}

func sameRecord(a, b fault.TrialRecord) bool {
	return a.Fault == b.Fault && a.Kernel == b.Kernel && a.Outcome == b.Outcome &&
		slices.Equal(a.Mechanisms, b.Mechanisms)
}

// certifyBench is the certify workload: the exhaustive single-fault
// verification through nlft.VerifyExhaustive.
type certifyBench struct {
	sz         sizes
	digest     string // the first repetition's certificate digest
	violations []exhaust.Violation
}

func (c *certifyBench) setup() (time.Duration, error) {
	t0 := time.Now()
	w := stdWorkload()
	start, _ := w.InjectionWindow()
	_, err := nlft.VerifyExhaustive(w, nlft.ExhaustConfig{Quantum: c.sz.Quantum, Parallelism: 1,
		Start: start, End: start + 1, Targets: []fault.Target{fault.TargetPC}})
	return time.Since(t0), err
}

func (c *certifyBench) rep() (repResult, error) {
	cpu0 := cpuTime()
	t0 := time.Now()
	res, err := nlft.VerifyExhaustive(stdWorkload(), nlft.ExhaustConfig{Quantum: c.sz.Quantum, Parallelism: 1})
	if err != nil {
		return repResult{}, err
	}
	rr := repResult{ttr: time.Since(t0), cpu: cpuTime() - cpu0, work: len(res.Records)}
	if err := c.check(res); err != nil {
		return rr, err
	}
	rr.heap = retainedHeap()
	runtime.KeepAlive(res)
	return rr, nil
}

// check requires the certificate to reproduce: every activated fault
// detected (C_D = 1) and the same digest on every repetition — and the
// pinned one, where sizes pin it. The digest covers every placement's
// outcome and the violation list, so a violation appearing, vanishing
// or changing fails the check. Violations themselves are findings
// about the kernel, not failures of the verification; checks() reports
// them.
func (c *certifyBench) check(res *nlft.ExhaustResult) error {
	activated := len(res.Records) - res.Counts[fault.NotActivated]
	detected := res.Counts[fault.Masked] + res.Counts[fault.Omission] + res.Counts[fault.FailSilent]
	if activated == 0 || detected != activated {
		return fmt.Errorf("C_D = %d/%d, want 1", detected, activated)
	}
	if c.digest == "" {
		c.digest = res.Cert.Digest
		c.violations = res.Violations
	}
	if res.Cert.Digest != c.digest {
		return fmt.Errorf("certificate digest %s differs from the first repetition's %s", res.Cert.Digest, c.digest)
	}
	if c.sz.CertDigest != "" && res.Cert.Digest != c.sz.CertDigest {
		return fmt.Errorf("certificate digest %s, pinned %s", res.Cert.Digest, c.sz.CertDigest)
	}
	return nil
}

func (c *certifyBench) checks() map[string]string {
	out := map[string]string{"certificate_digest": c.digest,
		"violations": fmt.Sprint(len(c.violations))}
	for i, v := range c.violations {
		out[fmt.Sprintf("violation_%d", i)] = v.String()
	}
	return out
}
