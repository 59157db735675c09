package fault

// ForkSession is the one trial executor of the injection engine. Every
// entry point runs its trials through it: serial and sharded campaigns
// and adaptive rounds on the ShardRunner's slots (shardrun.go), and the
// exhaustive verifier (internal/exhaust) through Exec. A session owns
// one live instance, a golden-prefix checkpoint store captured with the
// phantom-injection queue geometry, and the finished golden run's
// writes and event stream, so converged suffixes can be spliced
// instead of simulated. The soundness argument in fork.go applies
// unchanged: a session restore followed by a real injection is
// bit-identical to a from-scratch trial of the same placement.

import (
	"errors"
	"fmt"

	"repro/internal/des"
	"repro/internal/obs"
)

// TrialSpec is one planned trial: the fault plus the campaign's
// modelled kernel-coin decisions. Both flags are false for coin-free
// populations — planned campaigns, the exhaustive verifier's
// placements, or the adaptive campaign's sampled strata, whose
// kernel-coin branch is carried analytically as an exact stratum
// instead of being simulated.
type TrialSpec struct {
	Fault          Fault
	KernelHit      bool
	KernelDetected bool
}

// ForkRun is how one executed trial ended, before classification.
type ForkRun struct {
	// Kernel reports that the fault landed in kernel execution: a
	// modelled kernel hit, or an injection while the kernel occupied
	// the processor.
	Kernel bool
	// UndetectedKernel reports a modelled kernel hit that escaped the
	// kernel EDMs (a non-covered error).
	UndetectedKernel bool
	// Stop is the checkpoint boundary the run stopped at, or -1 when it
	// ran to the horizon.
	Stop int
	// Converged reports that the stop was a golden-digest match rather
	// than a request of Exec's boundary callback.
	Converged bool
}

// ForkSession is one execution slot's reusable fork state.
type ForkSession struct {
	// Inst is the live instance every restore rewinds in place.
	Inst *Instance
	// Col is the instance's collector (nil for classification-only
	// sessions); its registry and buffer rewind with every Restore.
	Col *obs.Collector

	cs           *checkpointStore
	golden       []Write
	goldenEvents []obs.Event
	horizon      des.Time

	// Current-trial state read by the bound callbacks, which are
	// closures created once per session so the per-trial path schedules
	// events without allocating.
	spec       TrialSpec
	run        ForkRun
	nextCheck  int
	onBoundary func(b int, digest uint64) bool
	injectFn   func()
	checkFn    func()
	splice     []Write
	mechs      []string
}

// NewForkSession builds an instance, captures golden-prefix checkpoints
// at the resolved spacing (interval 0 means the campaign default), and
// finishes the golden run to the horizon, validating it the way Run
// does. With withEvents the instance carries a collector with no event
// cap, so every restore rewinds a complete event stream — the
// exhaustive verifier checks TEM invariants over full traces.
func NewForkSession(w Workload, interval des.Time, withEvents bool) (*ForkSession, error) {
	var col *obs.Collector
	if withEvents {
		if _, ok := w.(ObservableWorkload); !ok {
			return nil, fmt.Errorf("fault: workload is not observable; cannot collect event streams")
		}
		col = obs.NewCollector("")
		col.SetEventLimit(0) // unlimited: invariant checks need full traces
	}
	return newForkSession(w, interval, col)
}

// newForkSession is NewForkSession with a caller-built collector (nil
// for none). The capture run is the golden run: it is finished to the
// horizon and validated, so building a session costs one golden
// simulation.
func newForkSession(w Workload, interval des.Time, col *obs.Collector) (*ForkSession, error) {
	inst, err := newInstance(w, col)
	if err != nil {
		return nil, err
	}
	s := &ForkSession{Inst: inst, Col: col, horizon: w.Horizon()}
	s.injectFn = func() { s.run.Kernel, s.run.UndetectedKernel = inject(s.Inst, &s.spec) }
	s.checkFn = func() { s.checkBoundary() }
	s.cs, err = captureCheckpoints(inst, col, resolveForkInterval(w, interval), s.horizon)
	if err != nil {
		return nil, err
	}
	if err := inst.Sim.RunUntil(s.horizon); err != nil {
		return nil, fmt.Errorf("fault: golden run: %w", err)
	}
	if err := CheckGolden(inst); err != nil {
		return nil, err
	}
	s.golden = append([]Write(nil), inst.Rec.Writes...)
	if col != nil {
		s.goldenEvents = append([]obs.Event(nil), col.Events()...)
	}
	// Rewind to the last checkpoint, where the capture run stopped, and
	// keep the rewind out of the page-traffic counters: finishing the
	// golden run is set-up, not trial traffic, and every trial restores
	// its own fork base anyway.
	mem := inst.Kernel.Mem()
	traffic := mem.Snap
	inst.Restore(s.cs.states[len(s.cs.states)-1], col)
	mem.Snap = traffic
	return s, nil
}

// CheckGolden validates a fault-free run that reached the horizon: the
// kernel must not have failed silent and no release may have been
// omitted. Every golden run — campaign, fork session and exhaustive
// verifier — passes through it.
func CheckGolden(inst *Instance) error {
	if failed, reason := inst.Kernel.Failed(); failed {
		return fmt.Errorf("fault: golden run failed silent: %s", reason)
	}
	if inst.Rec.Omissions > 0 {
		return fmt.Errorf("fault: golden run had omissions; workload unschedulable")
	}
	return nil
}

// Checkpoints is the checkpoint count; boundaries are indexed [0, n).
func (s *ForkSession) Checkpoints() int { return len(s.cs.states) }

// CheckpointAt is the capture instant of boundary k.
func (s *ForkSession) CheckpointAt(k int) des.Time { return s.cs.states[k].at }

// GoldenWritesLen is the golden write count at boundary k.
func (s *ForkSession) GoldenWritesLen(k int) int { return s.cs.states[k].writesLen }

// GoldenEventsLen is the golden event count at boundary k (0 without a
// collector).
func (s *ForkSession) GoldenEventsLen(k int) int { return s.cs.states[k].eventsLen }

// Select returns the fork base for a fault at the given instant: the
// latest checkpoint strictly before it whose committed CPU slices all
// end at or before it (the cpuBusyUntil guard — see fork.go).
func (s *ForkSession) Select(at des.Time) int { return s.cs.selectFor(at) }

// Golden is the fault-free output sequence.
func (s *ForkSession) Golden() []Write { return s.golden }

// GoldenEvents is the fault-free event stream (nil without a collector).
func (s *ForkSession) GoldenEvents() []obs.Event { return s.goldenEvents }

// Horizon is the simulated duration of one trial.
func (s *ForkSession) Horizon() des.Time { return s.horizon }

// Restore rewinds the session's instance (and collector) to checkpoint
// k and cancels the phantom injection, leaving the instance ready for
// the caller to schedule a real injection at PrioInject.
//
//nlft:noalloc
func (s *ForkSession) Restore(k int) {
	s.Inst.Restore(s.cs.states[k], s.Col)
	s.Inst.Sim.Cancel(s.cs.phantom)
}

// RunTrial executes one forked trial of spec and classifies it: the
// record is bit-identical to a from-scratch trial of the same spec. The
// convergence cutoff is on unless the session carries a collector — its
// registry covers the whole run, and a skipped suffix's metrics cannot
// be spliced back.
func (s *ForkSession) RunTrial(spec TrialSpec) (TrialRecord, error) {
	if err := s.exec(spec, s.Col == nil, nil); err != nil {
		return TrialRecord{}, err
	}
	rec := TrialRecord{Fault: spec.Fault, Kernel: s.run.Kernel,
		// A converged trial's counters are final: the golden suffix is
		// fault-free, so it contributes no detections (and the digest's
		// memory fold proves no ECC flip was still pending at the cutoff).
		Mechanisms: mechanisms(s.Inst, &s.mechs)}
	writes := s.Inst.Rec.Writes
	if s.run.Converged {
		// Splice the golden suffix onto the trial's writes; the
		// omission/masking counters are already final.
		wl := s.cs.states[s.run.Stop].writesLen
		s.splice = append(s.splice[:0], writes...)
		s.splice = append(s.splice, s.golden[wl:]...)
		writes = s.splice
	}
	rec.Outcome = classify(s.Inst, writes, s.golden, s.run.UndetectedKernel)
	return rec, nil
}

// Exec executes one forked trial of spec for a caller that composes
// the skipped suffix itself — the exhaustive verifier splices golden or
// memoized writes, events and counter deltas — so the convergence
// cutoff is always on. At every boundary after the injection whose
// forward digest differs from the golden run's, onBoundary (when
// non-nil) receives the boundary index and that digest; returning true
// stops the trial there. onBoundary runs on the hot path and must not
// allocate. The instance is left at the stop state for the caller to
// read.
func (s *ForkSession) Exec(spec TrialSpec, onBoundary func(b int, digest uint64) bool) (ForkRun, error) {
	err := s.exec(spec, true, onBoundary)
	return s.run, err
}

// exec restores the fork base, swaps the phantom for the real
// injection, arms the boundary checks when cutoff is set, and runs to
// the horizon or the first boundary that stops the trial.
func (s *ForkSession) exec(spec TrialSpec, cutoff bool, onBoundary func(int, uint64) bool) error {
	ck := s.cs.selectFor(spec.Fault.At)
	s.Restore(ck)
	s.spec = spec
	s.run = ForkRun{Stop: -1}
	s.onBoundary = onBoundary
	s.Inst.Sim.Schedule(spec.Fault.At, des.PrioInject, s.injectFn)
	if cutoff {
		s.nextCheck = len(s.cs.states)
		for b := ck + 1; b < len(s.cs.states); b++ {
			if s.cs.states[b].at > spec.Fault.At {
				s.nextCheck = b
				break
			}
		}
		if s.nextCheck < len(s.cs.states) {
			s.Inst.Sim.Schedule(s.cs.states[s.nextCheck].at, des.PrioObserver, s.checkFn)
		}
	}
	err := s.Inst.Sim.RunUntil(s.horizon)
	if err != nil && !(errors.Is(err, des.ErrStopped) && s.run.Stop >= 0) {
		return err
	}
	return nil
}

// checkBoundary fires at a checkpoint boundary after the injection and
// compares the trial's forward digest against the golden run's at the
// same boundary. The digest covers everything that can influence the
// remainder of the run — the clock, the pending-event multiset, the
// processor, memory, and all live scheduler/TEM state (see
// kernel.ForwardDigest) — so equality proves the trial's future is the
// golden future and the suffix need not be simulated: the trial is
// classified from its current counters plus the golden suffix (whose
// omission/masking/detection deltas are zero, the golden run being
// fault-free, and whose writes are spliced on).
//
// The checker is self-rearming: the next boundary's check is scheduled
// only after the current one completes, so at digest time no checker
// event is pending and the trial's pending-event multiset is compared
// against the golden capture's without correction. Pending checker
// events between boundaries can split the kernel's CPU slices at
// boundary instants; a split slice resumes the same copy with no
// context-switch overhead and no state change, so outcomes and
// recorder-visible behaviour are unaffected.
//
//nlft:noalloc
func (s *ForkSession) checkBoundary() {
	b := s.nextCheck
	d := s.Inst.Kernel.ForwardDigest(des.Event{})
	if d == s.cs.states[b].fwdDigest {
		s.run.Stop, s.run.Converged = b, true
		s.Inst.Sim.Stop()
		return
	}
	if s.onBoundary != nil && s.onBoundary(b, d) {
		s.run.Stop = b
		s.Inst.Sim.Stop()
		return
	}
	s.nextCheck++
	if s.nextCheck < len(s.cs.states) {
		s.Inst.Sim.Schedule(s.cs.states[s.nextCheck].at, des.PrioObserver, s.checkFn)
	}
}

// GoldenWrites executes the workload fault-free and returns its output
// sequence — the classification reference for externally planned
// scratch trials (ScratchRunner).
func GoldenWrites(w Workload) ([]Write, error) { return goldenRun(w, nil) }

// ScratchRunner executes planned trials from t=0 with no fork
// machinery — the reference oracle the differential tests and benches
// pin the fork executor against. The zero value is ready to use.
type ScratchRunner struct {
	mechs []string
}

// RunTrial executes one trial of spec from scratch and classifies it
// against golden, exactly as a NoFork campaign trial runs.
func (r *ScratchRunner) RunTrial(w Workload, spec TrialSpec, golden []Write) (TrialRecord, error) {
	return runTrial(w, spec, golden, &r.mechs, nil)
}
