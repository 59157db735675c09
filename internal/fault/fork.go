package fault

// The checkpoint/fork campaign engine. Every trial of a campaign
// simulates the same fault-free prefix up to its injection instant;
// only the suffix after the fault differs. The engine captures the
// golden prefix once per worker — full-machine snapshots at checkpoint
// boundaries — and each trial restores the latest sound checkpoint
// before its fault instead of re-simulating from t=0.
//
// Soundness of the fork (why a forked trial is bit-identical to one
// simulated from scratch):
//
//  1. Identity preservation. Snapshots are captured from, and restored
//     into, the same Instance: every model object (simulator event
//     pool, kernel, tcbs, job records, collector series) is rewound in
//     place, so the callback closures held by queued events and the
//     pointers cached across components stay valid. Event pool
//     generation counters rewind with the pool, which revalidates
//     exactly the handles that were live at capture time — and every
//     holder of such a handle is restored from the same checkpoint.
//
//  2. Prefix equality. A legacy trial keeps its injection event queued
//     from t=0 until it fires, and a pending event bounds the kernel's
//     co-simulated CPU slices (runSlice cuts each slice at the next
//     queued instant). The capture run therefore schedules a phantom
//     injection at (MaxTime, PrioInject): the queue depth matches a
//     legacy trial's, and the phantom, sitting at MaxTime, can never
//     bound a slice differently from a legacy injection unless a slice
//     reaches past the fault instant. The checkpoint-selection rule
//     rejects exactly those checkpoints: a trial with fault time t
//     restores the latest checkpoint k with time(k) < t AND
//     cpuBusyUntil(k) <= t. cpuBusyUntil is the end of the last
//     committed slice and is monotone over the run, so the condition
//     guarantees no capture slice in the restored prefix crossed t —
//     meaning the legacy injection event could not have bounded any of
//     those slices either (a slice that would have been cut at t ends
//     at or before t, and one that ran past t bumps cpuBusyUntil past t
//     and disqualifies the checkpoint). The restored prefix is thus
//     bit-identical to the prefix a from-scratch trial would simulate.
//
//  3. Suffix equality. After the restore the trial cancels the phantom
//     and schedules the real injection at (t, PrioInject); the replayed
//     [checkpoint, t) window and the post-injection suffix then run
//     under exactly the legacy event set. The injection occupies the
//     PrioInject band alone at its instant, so its sequence number
//     (which differs from a from-scratch trial's) can never influence
//     tie-breaking.
//
// The executor that runs trials on this machinery, including the
// convergence cutoff, is ForkSession (session.go).

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/kernel"
	"repro/internal/obs"
)

// SnapshotHinter is implemented by workloads that know a natural
// checkpoint spacing — typically their period, so checkpoint boundaries
// coincide with release instants. Since delta snapshots made captures
// near-free, the hint only matters when it is finer than the 250 µs
// default (boundary alignment is then preserved); a coarser hint no
// longer wins, because dense checkpoints are what make fork restores
// and convergence cutoffs cheap.
type SnapshotHinter interface {
	// SnapshotInterval returns the preferred checkpoint spacing.
	SnapshotInterval() des.Time
}

// maxCheckpoints bounds the per-worker checkpoint count so a
// pathologically small SnapshotInterval cannot exhaust memory; the
// interval is clamped up to horizon/maxCheckpoints. With delta
// snapshots a checkpoint costs only its dirtied pages, so the clamp is
// loose — it exists to stop degenerate configurations, not to ration
// full-image copies as the pre-delta engine had to.
const maxCheckpoints = 4096

// defaultForkInterval is the checkpoint spacing used when neither the
// campaign config nor a finer workload hint supplies one. 250 µs is the
// dense regime the fork benchmarks identified as the throughput
// optimum for the standard workload; delta snapshots make its capture
// cost negligible.
const defaultForkInterval = 250 * des.Microsecond

// resolveForkInterval picks the checkpoint spacing: an explicit
// (positive) interval wins; otherwise the 250 µs default, tightened to
// the workload's hint when that is finer; pathologically small results
// are clamped so the store stays bounded.
func resolveForkInterval(w Workload, interval des.Time) des.Time {
	horizon := w.Horizon()
	if interval <= 0 {
		interval = defaultForkInterval
		if h, ok := w.(SnapshotHinter); ok {
			if hint := h.SnapshotInterval(); hint > 0 && hint < interval {
				interval = hint
			}
		}
	}
	if min := horizon / maxCheckpoints; interval < min {
		interval = min
	}
	if interval <= 0 {
		interval = horizon
	}
	return interval
}

// InstanceState is one checkpoint of a trial instance: simulator,
// kernel (with processor, memory and MMU), the recorder, and — when the
// campaign collects telemetry — the collector. Recorder state is a full
// copy, not a length: a forked trial overwrites the shared Writes
// buffer past the checkpoint, so truncation alone could resurrect a
// previous trial's tail.
type InstanceState struct {
	sim  des.SimState
	kern kernel.KernelState
	col  *obs.CollectorState

	writes         []Write
	omissions      int
	maskedReleases int

	// at is the capture instant; writesLen the golden write count at it;
	// eventsLen the collector's event count at it (0 without a
	// collector); fwdDigest the kernel forward digest at it (net of the
	// phantom).
	//nlft:snapshot-skip capture metadata read by fork selection, set by Capture not Snapshot
	at des.Time
	//nlft:snapshot-skip capture metadata: golden-prefix length consumed by classification, not rewound
	writesLen int
	//nlft:snapshot-skip capture metadata: event-prefix length consumed by classification, not rewound
	eventsLen int
	//nlft:snapshot-skip capture metadata set by the convergence probe, compared not rewound
	fwdDigest uint64
}

// Snapshot captures inst (and col, when non-nil) into st.
//
//nlft:noalloc
func (inst *Instance) Snapshot(into *InstanceState, col *obs.Collector) {
	inst.Sim.Snapshot(&into.sim)
	inst.Kernel.Snapshot(&into.kern)
	if col != nil {
		if into.col == nil {
			//nlft:allow noalloc cold first-capture path: the state is retained per checkpoint
			into.col = obs.NewCollectorState()
		}
		col.Snapshot(into.col)
		into.eventsLen = len(col.Events())
	}
	into.writes = append(into.writes[:0], inst.Rec.Writes...)
	into.omissions = inst.Rec.Omissions
	into.maskedReleases = inst.Rec.MaskedReleases
	into.writesLen = len(into.writes)
}

// Restore rewinds inst (and col, when non-nil) to a state captured from
// the same instance with Snapshot.
//
//nlft:noalloc
func (inst *Instance) Restore(from *InstanceState, col *obs.Collector) {
	inst.Sim.Restore(&from.sim)
	inst.Kernel.Restore(&from.kern)
	if col != nil && from.col != nil {
		col.Restore(from.col)
	}
	inst.Rec.Writes = append(inst.Rec.Writes[:0], from.writes...)
	inst.Rec.Omissions = from.omissions
	inst.Rec.MaskedReleases = from.maskedReleases
}

// checkpointStore is one worker's golden-prefix checkpoint sequence.
type checkpointStore struct {
	states []*InstanceState
	// phantom is the placeholder injection event scheduled before the
	// capture run (see the prefix-equality argument above). Its handle
	// revalidates at every restore; each trial cancels it and schedules
	// the real injection.
	phantom des.Event
}

// captureCheckpoints runs inst fault-free, snapshotting at every
// boundary k·interval < horizon. Checkpoint 0 is captured before any
// event fires, so a fault at t=0 still restores a pre-injection state
// (the injection priority band fires before the first releases).
func captureCheckpoints(inst *Instance, col *obs.Collector, interval, horizon des.Time) (*checkpointStore, error) {
	cs := &checkpointStore{}
	cs.phantom = inst.Sim.Schedule(des.MaxTime, des.PrioInject, func() {})
	for t := des.Time(0); t < horizon; t += interval {
		if t > 0 {
			if err := inst.Sim.RunUntil(t); err != nil {
				return nil, fmt.Errorf("fault: capture run: %w", err)
			}
		}
		st := &InstanceState{at: t}
		inst.Snapshot(st, col)
		st.fwdDigest = inst.Kernel.ForwardDigest(cs.phantom)
		cs.states = append(cs.states, st)
	}
	return cs, nil
}

// selectFor returns the index of the fork base for a fault at the given
// instant: the latest checkpoint strictly before it whose committed CPU
// slices all end at or before it (see the prefix-equality argument).
// cpuBusyUntil is monotone over the capture run, so the scan can stop
// at the first violation.
func (cs *checkpointStore) selectFor(at des.Time) int {
	best := 0
	for k := 1; k < len(cs.states); k++ {
		st := cs.states[k]
		if st.at >= at || st.kern.CPUBusyUntil() > at {
			break
		}
		best = k
	}
	return best
}
