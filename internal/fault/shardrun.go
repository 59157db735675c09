package fault

// The span driver. Every campaign entry point runs its trials through
// ShardRunner: Run executes the whole range [0, Trials) as one span, a
// sharded worker (internal/shard) executes the lease ranges it wins,
// and the adaptive campaign (internal/adapt) executes explicit
// TrialSpec batches per round. A runner keeps its slots — one fork
// session each (session.go) — warm across calls: the golden run and
// the per-slot checkpoint captures are paid once and amortized, so a
// span costs only its trials' post-injection suffixes.
//
// Why a shard is bit-identical to the same index range of a serial
// run: every trial's spec is a pure function of (Seed, trial index)
// (planForTrial), every trial executes on the same executor, records
// land at their trial index, and all cross-trial aggregation — tally
// counts and the telemetry registry — is commutative addition over
// per-trial contributions. No part of a trial can observe which
// process, lease, or slot ran it.

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"

	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/stats"
)

// TallyDelta is the wire form of one shard's outcome tallies: the flat
// tally arrays plus the open mechanism map. It marshals canonically
// (arrays in index order, encoding/json sorts the map keys), merges by
// pure addition, and applies to a Result with the exact skip-zero
// semantics of the serial merge, so the folded maps are identical to a
// serial run's for any shard partition and arrival order.
type TallyDelta struct {
	Counts      [NumOutcomes + 1]int                 `json:"counts"`
	ByTarget    [NumTargets + 1][NumOutcomes + 1]int `json:"by_target"`
	ByMechanism map[string]int                       `json:"by_mechanism,omitempty"`
}

// record folds one settled trial into the delta. Outcome and per-target
// counters are flat arrays indexed by the enum values (valid Outcomes
// and Targets start at 1, so slot 0 stays unused): the per-trial path
// touches no map buckets except the open mechanism set.
//
//nlft:merge
func (d *TallyDelta) record(rec *TrialRecord) {
	d.Counts[rec.Outcome]++
	d.ByTarget[rec.Fault.Target][rec.Outcome]++
	for _, m := range rec.Mechanisms {
		if d.ByMechanism == nil {
			d.ByMechanism = make(map[string]int)
		}
		d.ByMechanism[m]++
	}
}

// Merge adds another shard's delta; pure addition, so any merge order
// yields the same delta.
//
//nlft:merge
func (d *TallyDelta) Merge(o *TallyDelta) {
	if o == nil {
		return
	}
	for i, n := range o.Counts {
		d.Counts[i] += n
	}
	for tg, counts := range o.ByTarget {
		for i, n := range counts {
			d.ByTarget[tg][i] += n
		}
	}
	//nlft:allow nodeterminism tally merge adds, which commutes; iteration order cannot affect the result
	for m, n := range o.ByMechanism {
		if d.ByMechanism == nil {
			d.ByMechanism = make(map[string]int)
		}
		d.ByMechanism[m] += n
	}
}

// ApplyTo folds the delta into a Result's exported maps, skipping empty
// slots, so the map contents — and every digest derived from them —
// are identical for any shard partition and merge order.
//
//nlft:merge
func (d *TallyDelta) ApplyTo(res *Result) {
	for o, n := range d.Counts {
		if n > 0 {
			res.Counts[Outcome(o)] += n
		}
	}
	//nlft:allow nodeterminism tally merge adds, which commutes; iteration order cannot affect the result
	for m, n := range d.ByMechanism {
		res.ByMechanism[m] += n
	}
	for target, counts := range d.ByTarget {
		for o, n := range counts {
			if n == 0 {
				continue
			}
			if res.ByTarget[Target(target)] == nil {
				res.ByTarget[Target(target)] = make(map[Outcome]int)
			}
			res.ByTarget[Target(target)][Outcome(o)] += n
		}
	}
}

// ShardResult is one completed trial-index range [Lo, Hi): the records
// in trial order plus the shard's additive tally and telemetry deltas.
type ShardResult struct {
	Lo, Hi int
	// Records holds the trials of the range in index order;
	// Records[i] is trial Lo+i, bit-identical to the record a serial
	// run produces at that index.
	Records []TrialRecord
	// Tally is the shard's outcome tally delta.
	Tally TallyDelta
	// Metrics is the shard's telemetry registry delta in canonical wire
	// form (nil unless the campaign collects telemetry).
	Metrics *obs.RegistryWire
}

// spanResult is one executed span before it takes wire form.
type spanResult struct {
	// records holds the span's trials in order.
	records []TrialRecord
	tally   TallyDelta
	// metrics is the merged telemetry registry (nil without Telemetry).
	metrics *obs.Registry
	// events holds each trial's event stream (nil unless
	// TelemetryEvents).
	events [][]obs.Event
}

// slot is one parallel execution slot of a runner: a fork session built
// on first use and reused across spans (restore fully rewinds it), or
// on the NoFork path just the scratch oracle's mechanism buffer.
type slot struct {
	sess  *ForkSession
	mechs []string
}

// ShardRunner executes trial spans of one campaign configuration:
// arbitrary trial-index ranges (Run) or explicit spec batches
// (RunSpecs). Build one per campaign and feed it every span: slot 0's
// session is built at construction, and its capture run is the golden
// run; the other slots capture on their first span, so later spans
// start injecting immediately. Not safe for concurrent calls (each span
// already fans out over cfg.Parallelism slots internally).
type ShardRunner struct {
	w            Workload
	cfg          CampaignConfig
	golden       []Write
	goldenEvents []obs.Event
	slots        []*slot
}

// NewShardRunner validates the configuration and runs the golden run.
// Sharded campaigns draw every trial from its (Seed, index) stream, so
// planned campaigns (cfg.Plan) are rejected; per-trial event streams
// (cfg.TelemetryEvents) are trial-ordered rather than additive, so
// they are a serial-only feature and rejected too.
func NewShardRunner(w Workload, cfg CampaignConfig) (*ShardRunner, error) {
	if cfg.Plan != nil {
		return nil, fmt.Errorf("fault: planned campaigns cannot be sharded")
	}
	if cfg.TelemetryEvents {
		return nil, fmt.Errorf("fault: per-trial event streams cannot be sharded; use Telemetry (metrics only)")
	}
	return newRunner(w, cfg)
}

// newRunner builds a runner for any configuration, planned and
// event-collecting campaigns included.
func newRunner(w Workload, cfg CampaignConfig) (*ShardRunner, error) {
	if w == nil {
		return nil, fmt.Errorf("fault: nil workload")
	}
	cfg.applyDefaults()
	if cfg.Trials < 1 {
		return nil, fmt.Errorf("fault: %d trials", cfg.Trials)
	}
	r := &ShardRunner{w: w, cfg: cfg, slots: make([]*slot, cfg.Parallelism)}
	var err error
	pprof.Do(context.Background(), pprof.Labels("campaign-phase", "golden-run"), func(context.Context) {
		err = r.setup()
	})
	if err != nil {
		return nil, err
	}
	if len(r.golden) == 0 {
		return nil, fmt.Errorf("fault: golden run produced no outputs; workload broken")
	}
	return r, nil
}

// setup builds slot 0 and takes the golden reference from its session;
// the NoFork oracle has no session, so it runs a golden run of its own.
func (r *ShardRunner) setup() error {
	s0, err := r.slot(0)
	if err != nil {
		return err
	}
	if s0.sess != nil {
		r.golden, r.goldenEvents = s0.sess.golden, s0.sess.goldenEvents
		return nil
	}
	var col *obs.Collector
	if r.cfg.TelemetryEvents {
		col = r.cfg.newCollector()
	}
	if r.golden, err = goldenRun(r.w, col); err != nil {
		return err
	}
	if col != nil {
		r.goldenEvents = col.Events()
	}
	return nil
}

// slot returns slot k, building it on first use.
func (r *ShardRunner) slot(k int) (*slot, error) {
	if r.slots[k] == nil {
		sl := &slot{}
		if !r.cfg.NoFork {
			s, err := newForkSession(r.w, r.cfg.SnapshotInterval, r.cfg.newCollector())
			if err != nil {
				return nil, err
			}
			sl.sess = s
		}
		r.slots[k] = sl
	}
	return r.slots[k], nil
}

// Config is the runner's configuration with defaults applied.
func (r *ShardRunner) Config() CampaignConfig { return r.cfg }

// Golden is the fault-free output sequence.
func (r *ShardRunner) Golden() []Write { return r.golden }

// plan is the campaign's spec for a trial index.
func (r *ShardRunner) plan(trial int) TrialSpec { return planForTrial(r.w, &r.cfg, trial) }

// Run executes trials [lo, hi) and returns their records and additive
// deltas. Any partition of [0, Trials) into Run calls — in any order,
// including overlapping re-runs of the same range discarded by the
// caller — merges to the serial result.
func (r *ShardRunner) Run(lo, hi int) (*ShardResult, error) {
	if lo < 0 || hi > r.cfg.Trials || lo >= hi {
		return nil, fmt.Errorf("fault: shard range [%d, %d) outside campaign [0, %d)", lo, hi, r.cfg.Trials)
	}
	sp, err := r.span(lo, hi, r.plan)
	if err != nil {
		return nil, err
	}
	return &ShardResult{Lo: lo, Hi: hi, Records: sp.records, Tally: sp.tally,
		Metrics: sp.metrics.Wire()}, nil
}

// RunSpecs executes an explicit batch of planned trials on the runner's
// warm slots and returns their records in batch order. The batch is
// independent of the campaign's trial range and seed: records[i] is
// what any executor produces for specs[i]. The adaptive campaign runs
// every round through it.
func (r *ShardRunner) RunSpecs(specs []TrialSpec) ([]TrialRecord, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	sp, err := r.span(0, len(specs), func(i int) TrialSpec { return specs[i] })
	if err != nil {
		return nil, err
	}
	return sp.records, nil
}

// span executes trials [lo, hi), trial i running spec(i), over
// min(Parallelism, hi-lo) slots. Slot k takes the strided share lo+k,
// lo+k+slots, …; records land at their range offset, so the result
// order is the trial order whatever the slot count.
func (r *ShardRunner) span(lo, hi int, spec func(int) TrialSpec) (*spanResult, error) {
	n := hi - lo
	slots := min(len(r.slots), n)
	out := &spanResult{records: make([]TrialRecord, n)}
	if r.cfg.TelemetryEvents {
		out.events = make([][]obs.Event, n)
	}
	tallies := make([]TallyDelta, slots)
	regs := make([]*obs.Registry, slots)
	errs := make([]error, slots)
	var progressMu sync.Mutex
	done := 0
	progress := func() {
		if r.cfg.OnProgress != nil {
			progressMu.Lock()
			done++
			r.cfg.OnProgress(done, n)
			progressMu.Unlock()
		}
	}
	var wg sync.WaitGroup
	for k := 0; k < slots; k++ {
		wg.Add(1)
		go pprof.Do(context.Background(),
			pprof.Labels("campaign-phase", "trials", "campaign-worker", strconv.Itoa(k)),
			func(context.Context) {
				defer wg.Done()
				regs[k], errs[k] = r.runSlot(k, slots, lo, spec, out, &tallies[k], progress)
			})
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for k := range tallies {
		out.tally.Merge(&tallies[k])
	}
	if r.cfg.Telemetry {
		out.metrics = obs.NewRegistry()
		for _, reg := range regs {
			out.metrics.Merge(reg)
		}
	}
	return out, nil
}

// runSlot executes slot k's strided share of the span, bucketed by fork
// base (ascending checkpoint index, so consecutive trials restore the
// same snapshot and the restore source stays cache-warm), and returns
// the slot's telemetry registry.
func (r *ShardRunner) runSlot(k, stride, lo int, spec func(int) TrialSpec, out *spanResult,
	t *TallyDelta, progress func()) (*obs.Registry, error) {
	sl, err := r.slot(k)
	if err != nil {
		return nil, err
	}
	type planned struct {
		off, ckpt int
		spec      TrialSpec
	}
	n := len(out.records)
	plans := make([]planned, 0, (n-k+stride-1)/stride)
	for off := k; off < n; off += stride {
		p := planned{off: off, spec: spec(lo + off)}
		if sl.sess != nil {
			p.ckpt = sl.sess.Select(p.spec.Fault.At)
		}
		plans = append(plans, p)
	}
	sort.SliceStable(plans, func(a, b int) bool { return plans[a].ckpt < plans[b].ckpt })
	var acc *obs.Collector
	if r.cfg.Telemetry {
		acc = obs.NewCollector("")
		acc.SetEventLimit(-1) // metrics only
	}
	for _, p := range plans {
		rec, col, err := r.exec(sl, p.spec)
		if err != nil {
			return nil, fmt.Errorf("fault: trial %d: %w", lo+p.off, err)
		}
		if acc != nil {
			// col holds exactly this trial's full registry (checkpoint
			// prefix + simulated suffix); accumulate it before the next
			// trial rewinds or drops it.
			acc.Registry().Merge(col.Registry())
			if out.events != nil {
				out.events[p.off] = append([]obs.Event(nil), col.Events()...)
			}
		}
		recordTrialMetrics(acc, &rec)
		out.records[p.off] = rec
		t.record(&rec)
		progress()
	}
	if acc == nil {
		return nil, nil
	}
	return acc.Registry(), nil
}

// exec runs one trial on the slot and returns its record plus the
// collector holding exactly that trial's telemetry: the fork session's
// own collector, rewound by every restore, or on the NoFork path a
// fresh one per trial (nil without telemetry).
func (r *ShardRunner) exec(sl *slot, spec TrialSpec) (TrialRecord, *obs.Collector, error) {
	if sl.sess != nil {
		rec, err := sl.sess.RunTrial(spec)
		return rec, sl.sess.Col, err
	}
	col := r.cfg.newCollector()
	rec, err := runTrial(r.w, spec, r.golden, &sl.mechs, col)
	return rec, col, err
}

// snapshotStats sums the checkpoint-store traffic over the runner's
// fork sessions (nil on the NoFork path).
func (r *ShardRunner) snapshotStats() *SnapshotStats {
	if r.cfg.NoFork {
		return nil
	}
	agg := &SnapshotStats{PageBytes: cpu.PageBytes}
	for _, sl := range r.slots {
		if sl == nil {
			continue
		}
		// Checkpoint count and RAM size are identical across sessions;
		// the traffic counters sum.
		ms := sl.sess.Inst.Kernel.Mem()
		agg.Workers++
		agg.Checkpoints = sl.sess.Checkpoints()
		agg.RAMBytes = uint64(ms.SizeBytes())
		agg.Snapshots += ms.Snap.Snapshots
		agg.Restores += ms.Snap.Restores
		agg.PagesCopied += ms.Snap.PagesCopied
		agg.PagesRestored += ms.Snap.PagesRestored
	}
	return agg
}

// FinalizeSharded assembles a campaign Result from span-merged parts —
// the last step of both Run and the coordinator's fold: the tally delta
// folds into the exported maps with skip-zero semantics, the merged
// registry becomes Result.Metrics when telemetry was collected, and the
// §3.2.2 estimators are computed from the folded counts. Snapshots
// stays nil (checkpoint-store traffic is a per-process diagnostic, not
// part of the campaign's observable result; Run fills it in).
func FinalizeSharded(cfg CampaignConfig, golden []Write, trials []TrialRecord, delta *TallyDelta, metrics *obs.Registry) (*Result, error) {
	cfg.applyDefaults()
	if len(trials) != cfg.Trials {
		return nil, fmt.Errorf("fault: %d trial records for a %d-trial campaign", len(trials), cfg.Trials)
	}
	res := &Result{
		Config:      cfg,
		Golden:      golden,
		Counts:      make(map[Outcome]int),
		ByMechanism: make(map[string]int),
		ByTarget:    make(map[Target]map[Outcome]int),
		Trials:      trials,
	}
	delta.ApplyTo(res)
	if cfg.Telemetry {
		res.Metrics = metrics
	}
	activated := res.Activated()
	detected := res.Detected()
	res.CD = stats.NewProportion(detected, activated)
	res.PT = stats.NewProportion(res.Counts[Masked], detected)
	res.POM = stats.NewProportion(res.Counts[Omission], detected)
	res.PFS = stats.NewProportion(res.Counts[FailSilent], detected)
	return res, nil
}
