package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	nlft "repro"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/shard"
)

// span is one timed call into a layer. Its layer is the name up to the
// first dot; spans of one traced run share its run identifier.
type span struct {
	Name   string `json:"name"`
	Run    string `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory, timed from its epoch. One goroutine
// uses a tracer.
type tracer struct {
	epoch time.Time
	run   string
	spans []span
}

func newTracer(run string) *tracer { return &tracer{epoch: time.Now(), run: run} }

func (t *tracer) add(name string, parent int, start, end time.Time) int {
	t.spans = append(t.spans, span{Name: name, Run: t.run, ID: len(t.spans) + 1, Parent: parent,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	return len(t.spans)
}

// begin opens a span; end closes it and returns its duration.
func (t *tracer) begin(name string, parent int) int {
	now := time.Now()
	return t.add(name, parent, now, now)
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.epoch))
	return time.Duration(s.End - s.Start)
}

// drop discards the most recently opened span (a call that turned out
// to do no work).
func (t *tracer) drop(id int) {
	if id == len(t.spans) {
		t.spans = t.spans[:id-1]
	}
}

// adopt appends a worker process's spans under parent, shifting them
// onto this tracer's clock and identifiers.
func (t *tracer) adopt(w *workerReport, parent int) {
	shift := w.EpochUnixNs - t.epoch.UnixNano()
	base := len(t.spans)
	for _, s := range w.Spans {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		s.Run = t.run
		s.Start += shift
		s.End += shift
		t.spans = append(t.spans, s)
	}
}

// layers are the layers self time is reported for: the benchmark's own
// code (bench) and the four layers it calls into.
var layers = []string{"bench", "fault", "obs", "exhaust", "shard"}

// selfTimes returns each layer's self time: its spans' durations less
// the time their direct children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		children[s.Parent] += s.End - s.Start
	}
	out := make(map[string]time.Duration, len(layers))
	for _, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += time.Duration(max(0, s.End-s.Start-children[s.ID]))
	}
	return out
}

// writeSpans writes the spans as JSON lines under dir and returns the
// file's path.
func (t *tracer) writeSpans(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// tracedRun runs every layer probe once with spans around the calls
// into each layer, plus an untraced run of w's own path, and reports
// the per-layer metrics. The probes are the same whichever workload is
// named, so every traced run reports every per-layer metric; the
// workload chooses the path whose traced-to-untraced throughput ratio
// is the tracing overhead.
func tracedRun(w workload, seed uint64, sz sizes, outDir string) (*report, error) {
	sz.Trials = sz.TracedTrials
	r := newReport(w, seed, true)
	tr := newTracer(fmt.Sprintf("%s/seed=%d", w.name, seed))
	probe := func(name string, f func() error) {
		r.Attempted++
		if err := f(); err != nil {
			r.Failed++
			r.Checks[name] = "FAILED: " + err.Error()
		}
	}

	// Each probe yields its traced and untraced time to result; the
	// named workload's pair gives the overhead.
	times := make(map[string][2]time.Duration)
	var digest string
	for _, telemetry := range []bool{false, true} {
		name := "campaign"
		if telemetry {
			name = "campaign-telemetry"
		}
		var cp *campaignProbe
		probe(name, func() (err error) {
			cp, err = probeCampaign(r, tr, seed, sz, telemetry)
			return err
		})
		if cp == nil {
			continue
		}
		times[name] = [2]time.Duration{cp.traced, cp.untraced}
		if telemetry {
			probe("event-replay", func() error { return probeEventReplay(r, cp.res, sz) })
		} else {
			digest = fmt.Sprintf("%#x", cp.res.Digest())
			probe("replay", func() error { return probeReplay(r, tr, cp.res, sz) })
		}
	}
	probe("certify", func() error {
		t, u, err := probeExhaust(r, tr, sz, w.name == "certify")
		times["certify"] = [2]time.Duration{t, u}
		return err
	})
	probe("sharded", func() error {
		if digest == "" {
			return fmt.Errorf("no serial campaign digest to compare with")
		}
		t, u, err := probeShard(r, tr, seed, sz, digest, w.name == "sharded")
		times["sharded"] = [2]time.Duration{t, u}
		return err
	})

	if t := times[w.name]; t[0] > 0 && t[1] > 0 {
		// Same work on both sides, so the throughput ratio is the
		// inverse ratio of the times to result.
		r.value("trace.tps_ratio", "ratio", t[1].Seconds()/t[0].Seconds())
	}
	self := tr.selfTimes()
	for _, l := range layers {
		r.value("self_s."+l, "s", self[l].Seconds())
	}
	if outDir != "" {
		path, err := tr.writeSpans(outDir, fmt.Sprintf("%s-seed%d", w.name, seed))
		if err != nil {
			return nil, err
		}
		r.SpansFile = path
	}
	return r, nil
}

// campaignProbe is what probeCampaign hands on: the façade result and
// the traced and untraced times to result.
type campaignProbe struct {
	res              *nlft.CampaignResult
	traced, untraced time.Duration
}

// probeCampaign runs one campaign untraced through the façade, then
// again through the span driver the sharded path uses — one
// fault.ShardRunner.Run per lease-sized span, the tally and registry
// folds, fault.FinalizeSharded and Result.Digest — timing each call,
// and requires both digests to agree.
func probeCampaign(r *report, tr *tracer, seed uint64, sz sizes, telemetry bool) (*campaignProbe, error) {
	prefix := "fault."
	if telemetry {
		prefix = "fault.telemetry."
	}
	cfg := nlft.CampaignConfig{Trials: sz.Trials, Seed: seed, Parallelism: 1, Telemetry: telemetry}
	runtime.GC()
	t0 := time.Now()
	res, err := nlft.RunCampaign(stdWorkload(), cfg)
	if err != nil {
		return nil, err
	}
	want := res.Digest()
	p := &campaignProbe{res: res, untraced: time.Since(t0)}
	if err := checkCampaign(res, sz.Trials, sz.Checks); err != nil {
		return nil, err
	}
	if !telemetry {
		s := res.Snapshots
		r.count("fault.pages_restored_per_trial", "count", float64(s.PagesRestored)/float64(s.Restores))
	}

	runtime.GC()
	var ms runtime.MemStats
	var mallocs uint64
	var spans, merges []time.Duration
	var wires []*obs.RegistryWire
	root := tr.begin("bench.campaign", 0)
	id := tr.begin("fault.runner", root)
	runner, err := fault.NewShardRunner(stdWorkload(), cfg)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	records := make([]fault.TrialRecord, sz.Trials)
	var delta fault.TallyDelta
	var metrics *obs.Registry
	for lo := 0; lo < sz.Trials; lo += shard.DefaultLeaseSize {
		hi := min(lo+shard.DefaultLeaseSize, sz.Trials)
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		id := tr.begin("fault.span", root)
		sr, err := runner.Run(lo, hi)
		spans = append(spans, tr.end(id))
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - m0
		if err != nil {
			return nil, err
		}
		copy(records[lo:hi], sr.Records)
		delta.Merge(&sr.Tally)
		if sr.Metrics != nil {
			wires = append(wires, sr.Metrics)
			id := tr.begin("obs.merge", root)
			if metrics == nil {
				metrics = obs.NewRegistry()
			}
			metrics.Merge(sr.Metrics.Registry())
			merges = append(merges, tr.end(id))
		}
	}
	id = tr.begin("fault.finalize", root)
	fres, err := fault.FinalizeSharded(runner.Config(), runner.Golden(), records, &delta, metrics)
	if err != nil {
		return nil, err
	}
	got := fres.Digest()
	finalize := tr.end(id)
	p.traced = tr.end(root)
	if got != want {
		return nil, fmt.Errorf("span-driver digest %#x, campaign digest %#x", got, want)
	}

	r.tail(prefix+"span_s.p50", "s", scaled(spans, time.Second), 0.5)
	r.tail(prefix+"span_s.p90", "s", scaled(spans, time.Second), 0.9)
	r.value(prefix+"finalize_s", "s", finalize.Seconds())
	// Not an exact count: map growth depends on each map's random hash
	// seed, so a run's total drifts by a few allocations.
	r.value(prefix+"allocs_per_trial", "count", float64(mallocs)/float64(sz.Trials))
	if telemetry {
		n := 0
		for _, w := range wires {
			b, err := json.Marshal(w)
			if err != nil {
				return nil, err
			}
			n += len(b)
		}
		r.count("obs.wire_bytes_per_trial", "B", float64(n)/float64(sz.Trials))
		ns := scaled(merges, time.Nanosecond)
		r.tail("obs.merge_ns.p50", "ns", ns, 0.5)
		r.tail("obs.merge_ns.p90", "ns", ns, 0.9)
	}
	return p, nil
}

// probeReplay replays a strided sample of a campaign's records through
// one fault.ForkSession, timing ForkSession.Restore and RunTrial and
// reading the cpu, des and kernel counters of the session's instance
// across each trial. Every replayed record must match the campaign's.
func probeReplay(r *report, tr *tracer, res *nlft.CampaignResult, sz sizes) error {
	w := stdWorkload()
	var setups []time.Duration
	var sess *fault.ForkSession
	root := tr.begin("bench.replay", 0)
	for i := 0; i < sz.Sessions; i++ {
		id := tr.begin("fault.session", root)
		s, err := fault.NewForkSession(w, 0, false)
		setups = append(setups, tr.end(id))
		if err != nil {
			return err
		}
		sess = s
	}
	stride := max(1, len(res.Trials)/sz.Replays)
	var trials, restores []time.Duration
	var cycles, events, releases, converged uint64
	for i := 0; i < len(res.Trials); i += stride {
		want := res.Trials[i]
		id := tr.begin("fault.restore", root)
		sess.Restore(sess.Select(want.Fault.At))
		restores = append(restores, tr.end(id))
		c0, e0, r0 := instCounters(sess.Inst)
		id = tr.begin("fault.trial", root)
		got, err := sess.RunTrial(replaySpec(want))
		trials = append(trials, tr.end(id))
		if err != nil {
			return fmt.Errorf("replay of trial %d: %w", i, err)
		}
		c1, e1, r1 := instCounters(sess.Inst)
		cycles += c1 - c0
		events += e1 - e0
		releases += r1 - r0
		if sess.Inst.Sim.Now() < sess.Horizon() {
			converged++
		}
		if !sameRecord(got, want) {
			return fmt.Errorf("trial %d: fork replay %+v differs from campaign record %+v", i, got, want)
		}
	}
	tr.end(root)
	n := float64(len(trials))
	var trialTotal time.Duration
	for _, d := range trials {
		trialTotal += d
	}
	r.metric("fault.setup_s", "s", scaled(setups, time.Second))
	ns := scaled(trials, time.Nanosecond)
	r.tail("fault.trial_ns.p50", "ns", ns, 0.5)
	r.tail("fault.trial_ns.p99", "ns", ns, 0.99)
	r.tail("fault.restore_ns.p50", "ns", scaled(restores, time.Nanosecond), 0.5)
	r.count("fault.cutoff_ratio", "ratio", float64(converged)/n)
	r.count("cpu.sim_cycles_per_trial", "count", float64(cycles)/n)
	r.value("cpu.host_ns_per_sim_cycle", "ns", float64(trialTotal)/float64(cycles))
	r.count("des.events_per_trial", "count", float64(events)/n)
	r.count("kernel.releases_per_trial", "count", float64(releases)/n)
	return nil
}

// instCounters reads an instance's simulated-work counters: kernel
// cycles, fired events and task releases.
func instCounters(inst *fault.Instance) (cycles, events, releases uint64) {
	st := inst.Kernel.Stats()
	return st.KernelCycles + st.TaskCycles, inst.Sim.Fired(), st.Releases
}

// probeEventReplay measures the convergence cutoff a telemetry campaign
// gets: it replays a sample of the telemetry campaign's records through
// an event-collecting ForkSession — the engine runs trials with a
// collector attached exactly as a telemetry campaign does — and counts
// the trials that stopped before the horizon.
func probeEventReplay(r *report, res *nlft.CampaignResult, sz sizes) error {
	sess, err := fault.NewForkSession(stdWorkload(), 0, true)
	if err != nil {
		return err
	}
	stride := max(1, len(res.Trials)/sz.EventReplays)
	n, converged := 0, 0
	for i := 0; i < len(res.Trials); i += stride {
		want := res.Trials[i]
		got, err := sess.RunTrial(replaySpec(want))
		if err != nil {
			return fmt.Errorf("event replay of trial %d: %w", i, err)
		}
		if !sameRecord(got, want) {
			return fmt.Errorf("trial %d: event replay %+v differs from campaign record %+v", i, got, want)
		}
		n++
		if sess.Inst.Sim.Now() < sess.Horizon() {
			converged++
		}
	}
	r.count("fault.telemetry.cutoff_ratio", "ratio", float64(converged)/float64(n))
	return nil
}

// probeExhaust runs one traced exhaustive verification (and, when the
// named workload is certify, an untraced one first) and reports the
// engine's coverage accounting.
func probeExhaust(r *report, tr *tracer, sz sizes, reference bool) (traced, untraced time.Duration, err error) {
	c := &certifyBench{sz: sz}
	if reference {
		runtime.GC()
		rr, err := c.rep()
		if err != nil {
			return 0, 0, err
		}
		untraced = rr.ttr
	}
	runtime.GC()
	id := tr.begin("exhaust.verify", 0)
	res, err := nlft.VerifyExhaustive(stdWorkload(), nlft.ExhaustConfig{Quantum: sz.Quantum, Parallelism: 1})
	traced = tr.end(id)
	if err != nil {
		return 0, 0, err
	}
	if err := c.check(res); err != nil {
		return 0, 0, err
	}
	for k, v := range c.checks() {
		r.Checks[k] = v
	}
	st := res.Stats
	n := float64(st.Placements)
	r.count("exhaust.dedup_ratio", "ratio", float64(st.DedupHits)/n)
	r.count("exhaust.converged_ratio", "ratio", float64(st.ConvergedGolden)/n)
	r.count("exhaust.simulated", "count", float64(st.Simulated))
	r.value("exhaust.placement_ns", "ns", float64(traced)/n)
	return traced, untraced, nil
}

// probeShard runs the campaign spec through a coordinator and one
// traced worker process (and, when the named workload is sharded, an
// untraced one first), requires the serial digest, and reports the
// worker's transport timings.
func probeShard(r *report, tr *tracer, seed uint64, sz sizes, want string, reference bool) (traced, untraced time.Duration, err error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	if reference {
		runtime.GC()
		rr, err := (&shardedBench{seed: seed, sz: sz, exe: exe, want: want}).rep()
		if err != nil {
			return 0, 0, err
		}
		untraced = rr.ttr
	}
	runtime.GC()
	root := tr.begin("bench.sharded", 0)
	t, err := runSharded(exe, shardSpec(seed, sz.Trials), true)
	traced = tr.end(root)
	if err != nil {
		return 0, 0, err
	}
	if t.digest != want {
		return 0, 0, fmt.Errorf("sharded digest %s, serial campaign %s", t.digest, want)
	}
	wr := t.worker
	tr.adopt(wr, root)
	// The worker's spans are in call order: lease, engine, complete per
	// RunOne. Idle time runs from a completion returning to the next
	// lease being granted.
	var lease, complete, idle []float64
	var engine, runone, lastComplete int64
	for _, s := range wr.Spans {
		ms := float64(s.End-s.Start) / 1e6
		switch s.Name {
		case "shard.lease":
			lease = append(lease, ms)
			if lastComplete > 0 {
				idle = append(idle, float64(s.End-lastComplete)/1e6)
			}
		case "shard.complete":
			complete = append(complete, ms)
			lastComplete = s.End
		case "fault.engine":
			engine += s.End - s.Start
		case "shard.runone":
			runone += s.End - s.Start
		}
	}
	r.tail("shard.lease_ms.p50", "ms", lease, 0.5)
	r.tail("shard.complete_ms.p50", "ms", complete, 0.5)
	r.tail("shard.complete_ms.p90", "ms", complete, 0.9)
	r.tail("shard.idle_ms.p50", "ms", idle, 0.5)
	r.count("shard.frame_bytes_per_trial", "B", float64(wr.FrameBytes)/float64(wr.Trials))
	r.value("shard.engine_share", "ratio", float64(engine)/float64(runone))
	return traced, untraced, nil
}
