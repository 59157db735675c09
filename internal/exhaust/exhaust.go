// Package exhaust is a bounded model checker for the NLFT kernel's
// fault-tolerance guarantees: it enumerates EVERY single-fault
// placement — (time quantum × target × locus × bit) — within one
// hyperperiod of a workload and verifies, on every explored path, that
// the TEM state-machine invariants hold, that no deadline is missed,
// and that the classification matches what the sampling campaign would
// report for the same placement. Sampling estimates probabilities;
// enumeration proves absence (Cheng et al., arXiv 0905.3951, apply the
// same style of exhaustive timed exploration to fault-tolerant
// systems).
//
// The explorer runs on the campaign engine's trial executor
// (fault.ForkSession): each placement restores the latest sound golden
// checkpoint before its injection instant and simulates only the
// suffix. Two cutoffs bound the work:
//
//   - Golden convergence (PR 5's cutoff): at checkpoint boundaries
//     after the injection the placement's forward digest is compared
//     with the golden run's; equality proves the remaining suffix is
//     the golden suffix, which is spliced on instead of simulated.
//
//   - Visited-digest dedup (the cutoff turned into exhaustive
//     coverage): every boundary state a placement passes through is
//     recorded as (boundary, digest) → suffix memo. A later placement
//     reaching the same digest at the same boundary has provably the
//     same future — kernel.ForwardDigest folds everything that can
//     influence the remainder of a run — so its suffix writes, events
//     and counter deltas are composed from the memo without
//     simulation. See DESIGN.md ("Digest-dedup soundness").
//
// Outcome data (Records, Counts, ByTarget, ByMechanism, Violations,
// and the certificate digest) is bit-identical at any worker count and
// with the cutoffs on or off; only EngineStats (how much work each
// cutoff saved) varies with scheduling.
package exhaust

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/obs"
)

// DefaultQuantum is the placement spacing used when the config does not
// supply one: fine enough to hit every phase of the standard workload's
// copy execution, coarse enough that small configs stay enumerable.
const DefaultQuantum = 50 * des.Microsecond

// Config parameterizes an exhaustive verification.
type Config struct {
	// Quantum is the spacing between enumerated injection instants.
	// Default DefaultQuantum.
	Quantum des.Time
	// Start/End override the enumeration window as the half-open
	// interval [Start, End). Default (End == 0): the workload's
	// InjectionWindow clipped to one hyperperiod.
	Start, End des.Time
	// Targets restricts the enumerated fault classes, in canonical
	// order. Default fault.AllTargets().
	Targets []fault.Target
	// Parallelism is the worker count. Default GOMAXPROCS. Outcome data
	// is bit-identical for any value.
	Parallelism int
	// SnapshotInterval is the fork checkpoint spacing (0 = the campaign
	// engine's default).
	SnapshotInterval des.Time
	// NoFork selects the reference oracle: every placement is simulated
	// from t=0 on a fresh instance, with no fork engine at all. The
	// differential tests and benches compare against it. Slow; results
	// are identical either way.
	NoFork bool
	// NoDedup disables the visited-digest memo table (golden
	// convergence still applies) — the differential tests' second
	// reference. Results are identical either way.
	NoDedup bool
	// Label tags the coverage certificate.
	Label string
	// OnProgress, when set, is called after every settled placement.
	OnProgress func(done, total int)
}

func (c *Config) applyDefaults() {
	if c.Quantum <= 0 {
		c.Quantum = DefaultQuantum
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.Targets == nil {
		c.Targets = fault.AllTargets()
	}
}

// Violation kinds.
const (
	// ViolationTEMInvariant: the placement's event stream breaks a TEM
	// state-machine invariant (see obs.CheckInvariants).
	ViolationTEMInvariant = "tem-invariant"
	// ViolationDeadlineMiss: the placement produced an omission — a
	// release whose recovery did not fit the reserved slack.
	ViolationDeadlineMiss = "deadline-miss"
)

// Violation is one guarantee breach found on an explored path.
type Violation struct {
	// Placement is the canonical placement index.
	Placement int
	// Fault is the placement itself.
	Fault fault.Fault
	// Kind is ViolationTEMInvariant or ViolationDeadlineMiss.
	Kind string
	// Detail explains the breach.
	Detail string
}

// String renders the violation.
func (v Violation) String() string {
	return fmt.Sprintf("placement %d (%v): %s: %s", v.Placement, v.Fault, v.Kind, v.Detail)
}

// EngineStats reports how the engine covered the space. Unlike the
// outcome data, these counters are NOT worker-count-invariant: the memo
// tables are per-worker, so which placement simulates versus composes
// from a memo depends on the striding. They are excluded from the
// certificate digest for exactly that reason.
type EngineStats struct {
	// Placements is the enumerated placement count.
	Placements int
	// Simulated ran their full post-injection suffix.
	Simulated int
	// ConvergedGolden stopped early on a golden-digest match.
	ConvergedGolden int
	// DedupHits stopped early on a visited-digest memo.
	DedupHits int
	// Memos is the number of suffix memos retained across workers.
	Memos int
	// Workers and Checkpoints describe the engine geometry.
	Workers     int
	Checkpoints int
}

// Result is one exhaustive verification.
type Result struct {
	// Space is the enumerated placement space (nil for VerifyFaults
	// over an ad-hoc list).
	Space *Space
	// Records holds per-placement records in canonical placement order,
	// element-for-element comparable with a planned campaign's Trials.
	Records []fault.TrialRecord
	// Counts, ByTarget and ByMechanism tally outcomes like a campaign
	// Result's.
	Counts      map[fault.Outcome]int
	ByTarget    map[fault.Target]map[fault.Outcome]int
	ByMechanism map[string]int
	// Violations lists every guarantee breach, in placement order. An
	// empty slice is the proof: no single fault in the space breaks a
	// TEM invariant or causes a deadline miss.
	Violations []Violation
	// Stats reports engine coverage accounting.
	Stats EngineStats
	// Cert is the coverage certificate.
	Cert *Certificate
}

// Verify enumerates the workload's placement space and explores every
// placement.
func Verify(w fault.Workload, cfg Config) (*Result, error) {
	cfg.applyDefaults()
	space, err := NewSpace(w, &cfg)
	if err != nil {
		return nil, err
	}
	return run(w, &cfg, space.Faults(), space)
}

// VerifyFaults explores an explicit placement list instead of an
// enumerated space — the fuzz and differential tests drive single
// placements through the engine with it.
func VerifyFaults(w fault.Workload, cfg Config, faults []fault.Fault) (*Result, error) {
	cfg.applyDefaults()
	return run(w, &cfg, faults, nil)
}

// goldenObserved runs the workload fault-free on a fresh instance with
// a full event stream — the golden reference of the NoFork oracle,
// which builds no fork session.
func goldenObserved(w fault.Workload) ([]fault.Write, []obs.Event, error) {
	inst, col, err := scratchInstance(w)
	if err != nil {
		return nil, nil, err
	}
	if err := inst.Sim.RunUntil(w.Horizon()); err != nil {
		return nil, nil, err
	}
	if err := fault.CheckGolden(inst); err != nil {
		return nil, nil, err
	}
	return inst.Rec.Writes, col.Events(), nil
}

// checkGoldenEvents validates the fault-free invariants the verifier's
// guarantees are stated against.
func checkGoldenEvents(events []obs.Event) error {
	if vs := obs.CheckInvariants(events); len(vs) > 0 {
		return fmt.Errorf("exhaust: golden run violates TEM invariants: %v", vs[0])
	}
	if vs := obs.CheckNoCriticalOmission(events); len(vs) > 0 {
		return fmt.Errorf("exhaust: golden run omitted a critical release: %v", vs[0])
	}
	return nil
}

// scratchInstance builds a fresh observed instance with an uncapped
// event stream.
func scratchInstance(w fault.Workload) (*fault.Instance, *obs.Collector, error) {
	ow, ok := w.(fault.ObservableWorkload)
	if !ok {
		return nil, nil, fmt.Errorf("exhaust: workload is not observable; invariant checking needs event streams")
	}
	col := obs.NewCollector("")
	col.SetEventLimit(0)
	inst, err := ow.NewObserved(col)
	return inst, col, err
}

// run explores every placement of faults, fanned over workers with a
// strided assignment in placement order (records land at their
// placement index, so the canonical order is independent of workers and
// scheduling). Worker 0's fork session is built first: its capture run
// is the golden run every guarantee is checked against.
func run(w fault.Workload, cfg *Config, faults []fault.Fault, space *Space) (*Result, error) {
	if len(faults) == 0 {
		return nil, fmt.Errorf("exhaust: empty placement set")
	}
	workers := min(cfg.Parallelism, len(faults))
	sessions := make([]*fault.ForkSession, workers)
	var golden []fault.Write
	var events []obs.Event
	var err error
	if cfg.NoFork {
		golden, events, err = goldenObserved(w)
	} else {
		sessions[0], err = fault.NewForkSession(w, cfg.SnapshotInterval, true)
		if err == nil {
			events = sessions[0].GoldenEvents()
		}
	}
	if err != nil {
		return nil, err
	}
	if err := checkGoldenEvents(events); err != nil {
		return nil, err
	}
	recs := make([]fault.TrialRecord, len(faults))
	pviols := make([][]Violation, len(faults))
	stats := make([]EngineStats, workers)
	errs := make([]error, workers)
	var progressMu sync.Mutex
	progressDone := 0
	progress := func() {
		if cfg.OnProgress != nil {
			progressMu.Lock()
			progressDone++
			cfg.OnProgress(progressDone, len(faults))
			progressMu.Unlock()
		}
	}
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			place := func(i int) (fault.TrialRecord, []Violation, error) {
				stats[wk].Placements++
				stats[wk].Simulated++
				return runScratchPlacement(w, faults[i], golden, i)
			}
			if !cfg.NoFork {
				s := sessions[wk]
				if s == nil {
					if s, errs[wk] = fault.NewForkSession(w, cfg.SnapshotInterval, true); errs[wk] != nil {
						return
					}
				}
				wkr := newWorker(s, cfg, faults)
				defer func() {
					wkr.stats.Checkpoints = s.Checkpoints()
					stats[wk] = wkr.stats
				}()
				place = wkr.runPlacement
			}
			for i := wk; i < len(faults); i += workers {
				rec, vs, err := place(i)
				if err != nil {
					errs[wk] = fmt.Errorf("exhaust: placement %d: %w", i, err)
					return
				}
				recs[i] = rec
				pviols[i] = vs
				progress()
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	res := &Result{
		Space:       space,
		Records:     recs,
		Counts:      make(map[fault.Outcome]int),
		ByTarget:    make(map[fault.Target]map[fault.Outcome]int),
		ByMechanism: make(map[string]int),
	}
	for i := range recs {
		rec := &recs[i]
		res.Counts[rec.Outcome]++
		if res.ByTarget[rec.Fault.Target] == nil {
			res.ByTarget[rec.Fault.Target] = make(map[fault.Outcome]int)
		}
		res.ByTarget[rec.Fault.Target][rec.Outcome]++
		for _, m := range rec.Mechanisms {
			res.ByMechanism[m]++
		}
	}
	for _, vs := range pviols {
		res.Violations = append(res.Violations, vs...)
	}
	for _, s := range stats {
		res.Stats.Placements += s.Placements
		res.Stats.Simulated += s.Simulated
		res.Stats.ConvergedGolden += s.ConvergedGolden
		res.Stats.DedupHits += s.DedupHits
		res.Stats.Memos += s.Memos
		if s.Checkpoints > res.Stats.Checkpoints {
			res.Stats.Checkpoints = s.Checkpoints
		}
	}
	res.Stats.Workers = workers
	res.Cert = buildCertificate(cfg, space, res)
	return res, nil
}

// runScratchPlacement is the independent reference path: a fresh
// instance, the injection simulated from t=0, no checkpoints, no
// cutoffs, no composition. The differential and fuzz tests pin the fork
// engine against it.
func runScratchPlacement(w fault.Workload, f fault.Fault, golden []fault.Write, idx int) (fault.TrialRecord, []Violation, error) {
	inst, col, err := scratchInstance(w)
	if err != nil {
		return fault.TrialRecord{}, nil, err
	}
	rec := fault.TrialRecord{Fault: f}
	inst.Sim.Schedule(f.At, des.PrioInject, func() {
		if inst.Kernel.Activity() == kernel.ActivityKernel {
			rec.Kernel = true
			inst.Kernel.ForceFailSilent("kernel EDM: assertion after fault")
			return
		}
		fault.ApplyFault(inst, f)
	})
	if err := inst.Sim.RunUntil(w.Horizon()); err != nil {
		return fault.TrialRecord{}, nil, err
	}
	var mechs []string
	inst.Kernel.EachDetected(func(m string, n uint64) {
		if n > 0 {
			mechs = append(mechs, m)
		}
	})
	if inst.Kernel.Mem().CorrectedErrors > 0 {
		mechs = append(mechs, "ecc")
	}
	sort.Strings(mechs)
	rec.Mechanisms = mechs
	failed, _ := inst.Kernel.Failed()
	rec.Outcome = fault.ClassifyRaw(failed, inst.Rec.Writes, inst.Rec.Omissions,
		inst.Rec.MaskedReleases, inst.Kernel.Mem().CorrectedErrors, golden, false)
	viols := checkPlacement(idx, f, col.Events(), rec.Outcome, inst.Rec.Omissions)
	return rec, viols, nil
}

// checkPlacement evaluates the verifier's two guarantees over one
// placement's complete event stream and counters.
func checkPlacement(idx int, f fault.Fault, events []obs.Event, outcome fault.Outcome, omissions int) []Violation {
	var out []Violation
	for _, v := range obs.CheckInvariants(events) {
		out = append(out, Violation{Placement: idx, Fault: f,
			Kind: ViolationTEMInvariant, Detail: v.String()})
	}
	if outcome == fault.Omission || omissions > 0 {
		out = append(out, Violation{Placement: idx, Fault: f,
			Kind:   ViolationDeadlineMiss,
			Detail: fmt.Sprintf("%d omission event(s), outcome %v", omissions, outcome)})
	}
	return out
}
