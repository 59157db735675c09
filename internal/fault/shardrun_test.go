package fault

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"repro/internal/obs"
)

// mergeShards folds shard results (in the given order) into a final
// Result the way the coordinator does: records land at their range
// offset, tallies and registries merge commutatively.
func mergeShards(t *testing.T, cfg CampaignConfig, golden []Write, shards []*ShardResult) *Result {
	t.Helper()
	cfg.applyDefaults()
	records := make([]TrialRecord, cfg.Trials)
	var delta TallyDelta
	merged := obs.NewRegistry()
	for _, sr := range shards {
		copy(records[sr.Lo:sr.Hi], sr.Records)
		delta.Merge(&sr.Tally)
		merged.Merge(sr.Metrics.Registry())
	}
	var metrics *obs.Registry
	if cfg.Telemetry {
		metrics = merged
	}
	res, err := FinalizeSharded(cfg, golden, records, &delta, metrics)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// requireResultsEqual compares the observable result surface — the
// digest plus every field it covers, so a digest bug cannot mask a
// real divergence (or vice versa).
func requireResultsEqual(t *testing.T, got, want *Result, label string) {
	t.Helper()
	if !reflect.DeepEqual(got.Trials, want.Trials) {
		t.Errorf("%s: trial records differ", label)
	}
	if !reflect.DeepEqual(got.Counts, want.Counts) {
		t.Errorf("%s: counts %v, want %v", label, got.Counts, want.Counts)
	}
	if !reflect.DeepEqual(got.ByTarget, want.ByTarget) {
		t.Errorf("%s: by-target tallies differ", label)
	}
	if !reflect.DeepEqual(got.ByMechanism, want.ByMechanism) {
		t.Errorf("%s: by-mechanism %v, want %v", label, got.ByMechanism, want.ByMechanism)
	}
	if (got.Metrics == nil) != (want.Metrics == nil) {
		t.Fatalf("%s: metrics presence %v, want %v", label, got.Metrics != nil, want.Metrics != nil)
	}
	if got.Metrics != nil && got.Metrics.Digest() != want.Metrics.Digest() {
		t.Errorf("%s: metrics digest %#x, want %#x", label, got.Metrics.Digest(), want.Metrics.Digest())
	}
	if got.Digest() != want.Digest() {
		t.Errorf("%s: result digest %#x, want %#x", label, got.Digest(), want.Digest())
	}
}

// TestShardRunEquivalence: any partition of the trial range, run at any
// slot parallelism and merged in any order, reproduces the serial
// campaign bit-for-bit — records, tallies, registry, digest — on the
// fork executor and on the scratch (NoFork) oracle alike.
func TestShardRunEquivalence(t *testing.T) {
	cases := []struct {
		name       string
		w          Workload
		cfg        CampaignConfig
		partitions [][][2]int
	}{
		{"fork", NewStdWorkload(StdWorkloadConfig{}),
			CampaignConfig{Trials: 64, Seed: 7, Telemetry: true},
			[][][2]int{
				{{0, 64}},
				{{0, 21}, {21, 40}, {40, 64}},
				{{48, 64}, {0, 16}, {32, 48}, {16, 32}}, // out-of-order arrival
			}},
		{"no-fork", NewStdWorkload(StdWorkloadConfig{ECC: true}),
			CampaignConfig{Trials: 24, Seed: 3, NoFork: true, Telemetry: true},
			[][][2]int{{{12, 24}, {0, 12}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serialCfg := tc.cfg
			serialCfg.Parallelism = 2
			want, err := Run(tc.w, serialCfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, parallelism := range []int{1, 3} {
				shardCfg := tc.cfg
				shardCfg.Parallelism = parallelism
				runner, err := NewShardRunner(tc.w, shardCfg)
				if err != nil {
					t.Fatal(err)
				}
				for pi, ranges := range tc.partitions {
					shards := make([]*ShardResult, 0, len(ranges))
					for _, rg := range ranges {
						sr, err := runner.Run(rg[0], rg[1])
						if err != nil {
							t.Fatal(err)
						}
						shards = append(shards, sr)
					}
					got := mergeShards(t, shardCfg, runner.Golden(), shards)
					requireResultsEqual(t, got, want,
						// Parallelism differs between the serial and sharded
						// configs by design; the digest must not see it.
						fmtLabel("parallelism", parallelism, "partition", pi))
				}
			}
		})
	}
}

func fmtLabel(args ...interface{}) string {
	b, _ := json.Marshal(args)
	return string(b)
}

// TestRunSpecsMatchesScratch: a runner executing explicit spec batches
// across several calls on warm slots — the adaptive campaign's round
// loop — matches the from-scratch oracle record for record, at any slot
// count, kernel-coin branches included.
func TestRunSpecsMatchesScratch(t *testing.T) {
	w := NewStdWorkload(StdWorkloadConfig{ECC: true})
	cfg := CampaignConfig{Seed: 5}
	cfg.applyDefaults()
	specs := make([]TrialSpec, 60)
	for i := range specs {
		specs[i] = planForTrial(w, &cfg, i)
	}
	specs[3].KernelHit, specs[3].KernelDetected = true, false // undetected kernel hit
	specs[4].KernelHit, specs[4].KernelDetected = true, true
	golden, err := GoldenWrites(w)
	if err != nil {
		t.Fatal(err)
	}
	var oracle ScratchRunner
	want := make([]TrialRecord, len(specs))
	for i, spec := range specs {
		if want[i], err = oracle.RunTrial(w, spec, golden); err != nil {
			t.Fatal(err)
		}
	}
	for _, parallelism := range []int{1, 3} {
		runner, err := NewShardRunner(w, CampaignConfig{Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range [][2]int{{0, 7}, {7, 8}, {8, 40}, {40, 60}, {0, 60}} {
			got, err := runner.RunSpecs(specs[b[0]:b[1]])
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != b[1]-b[0] {
				t.Fatalf("batch %v: %d records", b, len(got))
			}
			for i, rec := range got {
				if !reflect.DeepEqual(rec, want[b[0]+i]) {
					t.Errorf("parallelism %d, batch %v, spec %d: runner %+v, scratch %+v",
						parallelism, b, b[0]+i, rec, want[b[0]+i])
				}
			}
		}
		if got, err := runner.RunSpecs(nil); err != nil || got != nil {
			t.Errorf("empty batch: %v, %v", got, err)
		}
	}
}

// TestShardRunIdempotent: re-running a range on a warm runner (the
// re-lease path after a worker loss) yields a byte-identical shard
// result, so the coordinator can discard duplicates freely.
func TestShardRunIdempotent(t *testing.T) {
	w := NewStdWorkload(StdWorkloadConfig{})
	runner, err := NewShardRunner(w, CampaignConfig{Trials: 32, Seed: 11, Telemetry: true, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.Run(0, 8); err != nil { // warm the slots on a different range first
		t.Fatal(err)
	}
	a, err := runner.Run(8, 24)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runner.Run(8, 24)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("re-run of the same range differs:\n%s\n%s", ja, jb)
	}
}

// TestShardRunnerRejects: configurations and ranges the sharded path
// cannot honor must error, not silently misbehave.
func TestShardRunnerRejects(t *testing.T) {
	w := NewStdWorkload(StdWorkloadConfig{})
	if _, err := NewShardRunner(nil, CampaignConfig{}); err == nil {
		t.Error("nil workload accepted")
	}
	if _, err := NewShardRunner(w, CampaignConfig{Plan: []Fault{{At: 1, Target: TargetALU, Mask: 1}}}); err == nil {
		t.Error("planned campaign accepted")
	}
	if _, err := NewShardRunner(w, CampaignConfig{TelemetryEvents: true}); err == nil {
		t.Error("per-trial event streams accepted")
	}
	runner, err := NewShardRunner(w, CampaignConfig{Trials: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, rg := range [][2]int{{-1, 5}, {5, 11}, {5, 5}, {7, 3}} {
		if _, err := runner.Run(rg[0], rg[1]); err == nil {
			t.Errorf("range [%d, %d) accepted", rg[0], rg[1])
		}
	}
	if _, err := FinalizeSharded(CampaignConfig{Trials: 10}, nil, make([]TrialRecord, 4), &TallyDelta{}, nil); err == nil {
		t.Error("record-count mismatch accepted")
	}
}

// TestTallyDeltaWireCanonical: the delta marshals canonically and
// round-trips through JSON without changing what it applies.
func TestTallyDeltaWireCanonical(t *testing.T) {
	d := TallyDelta{ByMechanism: map[string]int{"tem": 3, "ecc": 5, "assert": 1}}
	d.Counts[int(Masked)] = 4
	d.ByTarget[int(TargetALU)][int(FailSilent)] = 2
	j1, err := json.Marshal(&d)
	if err != nil {
		t.Fatal(err)
	}
	var rt TallyDelta
	if err := json.Unmarshal(j1, &rt); err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(&rt)
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Fatalf("delta JSON not canonical:\n%s\n%s", j1, j2)
	}
	if !reflect.DeepEqual(d, rt) {
		t.Fatalf("delta round-trip: got %+v, want %+v", rt, d)
	}
}

// TestResultDigestSensitivity: the digest must move when any covered
// field moves — otherwise the CI gate could pass vacuously.
func TestResultDigestSensitivity(t *testing.T) {
	w := NewStdWorkload(StdWorkloadConfig{})
	res, err := Run(w, CampaignConfig{Trials: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	base := res.Digest()
	if res.Digest() != base {
		t.Fatal("digest not stable")
	}
	res.Trials[3].Outcome++
	if res.Digest() == base {
		t.Error("digest blind to a trial outcome change")
	}
	res.Trials[3].Outcome--
	res.Counts[Masked]++
	if res.Digest() == base {
		t.Error("digest blind to a tally change")
	}
	res.Counts[Masked]--
	res.Config.Seed++
	if res.Digest() == base {
		t.Error("digest blind to the seed")
	}
	res.Config.Seed--
	if res.Digest() != base {
		t.Fatal("digest not restored; test bug")
	}
}

// Fuzz fixture: the serial reference is computed once per process and
// shared across fuzz iterations.
var (
	fuzzOnce   sync.Once
	fuzzWant   *Result
	fuzzRunner *ShardRunner
	fuzzErr    error
)

const fuzzTrials = 48

func fuzzSetup() {
	w := NewStdWorkload(StdWorkloadConfig{})
	cfg := CampaignConfig{Trials: fuzzTrials, Seed: 9, Telemetry: true, Parallelism: 2}
	fuzzWant, fuzzErr = Run(w, cfg)
	if fuzzErr != nil {
		return
	}
	fuzzRunner, fuzzErr = NewShardRunner(w, cfg)
}

// FuzzShardRangeEquivalence fuzzes shard-boundary placement: any two
// cut points partition the trial range into up to three shards whose
// merge must equal the serial run exactly. Boundary pathologies
// (cuts at 0, at Trials, coincident cuts, single-trial shards) are
// exactly what the fuzzer explores.
func FuzzShardRangeEquivalence(f *testing.F) {
	f.Add(uint16(0), uint16(0))
	f.Add(uint16(1), uint16(fuzzTrials-1))
	f.Add(uint16(fuzzTrials/2), uint16(fuzzTrials/2))
	f.Add(uint16(3), uint16(40))
	f.Fuzz(func(t *testing.T, a, b uint16) {
		fuzzOnce.Do(fuzzSetup)
		if fuzzErr != nil {
			t.Fatal(fuzzErr)
		}
		ca, cb := int(a)%(fuzzTrials+1), int(b)%(fuzzTrials+1)
		if ca > cb {
			ca, cb = cb, ca
		}
		cuts := []int{0, ca, cb, fuzzTrials}
		var shards []*ShardResult
		for i := 0; i+1 < len(cuts); i++ {
			lo, hi := cuts[i], cuts[i+1]
			if lo == hi {
				continue
			}
			sr, err := fuzzRunner.Run(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			shards = append(shards, sr)
		}
		got := mergeShards(t, fuzzRunner.Config(), fuzzRunner.Golden(), shards)
		requireResultsEqual(t, got, fuzzWant, fmtLabel("cuts", ca, cb))
	})
}
