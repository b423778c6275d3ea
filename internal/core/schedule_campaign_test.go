package core

import (
	"context"
	"encoding/json"
	"path/filepath"
	"testing"

	"repro/internal/buginject"
	"repro/internal/corpus"
	"repro/internal/harness"
	"repro/internal/jvm"
)

// checkpointVersionOf decodes just the envelope version of a raw
// checkpoint file.
func checkpointVersionOf(t *testing.T, data []byte) int {
	t.Helper()
	var ck harness.Checkpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		t.Fatal(err)
	}
	return ck.Version
}

// TestScheduleOffMatchesUnscheduled pins the satellite guarantee:
// -schedule=off reproduces the pre-scheduling campaign byte-identically,
// including the final checkpoint — same envelope (v4, no schedule
// block), same findings, same everything. A campaign config
// that never heard of scheduling and one that explicitly asks for off
// must be indistinguishable.
func TestScheduleOffMatchesUnscheduled(t *testing.T) {
	base := CampaignConfig{
		Seeds:   corpus.DefaultPool(3, 31),
		Budget:  150,
		Targets: []jvm.Spec{{Impl: buginject.HotSpot, Version: 17}},
		Fuzz:    testCampaignCfg(31),
		Seed:    31,
	}
	withOff := base
	withOff.SeedSchedule = corpus.ScheduleOff

	plain, plainCkpt := runForCheckpoint(t, base, 1)
	off, offCkpt := runForCheckpoint(t, withOff, 1)
	assertCampaignsEqual(t, plain, off)
	if s, o := normalizeCheckpoint(t, plainCkpt), normalizeCheckpoint(t, offCkpt); s != o {
		t.Errorf("off-mode checkpoint diverged from unscheduled:\nplain: %s\noff:   %s", s, o)
	}
	if v := checkpointVersionOf(t, offCkpt); v != 4 {
		t.Errorf("off-mode checkpoint version = %d, want 4", v)
	}
	for name, ck := range map[string][]byte{"plain": plainCkpt, "off": offCkpt} {
		if st := checkpointStateOf(t, ck); st.Schedule != nil || st.Generate != nil {
			t.Errorf("%s checkpoint carries a schedule or generate block: schedule=%v generate=%v", name, st.Schedule != nil, st.Generate != nil)
		}
	}
}

// TestPowerCampaignDeterministic: the power schedule is a pure function
// of the campaign seed and the merged observation prefix, so two
// identical runs must agree byte-for-byte — results and final
// checkpoint, which now carries the schedule block.
func TestPowerCampaignDeterministic(t *testing.T) {
	ccfg := CampaignConfig{
		Seeds:        corpus.DefaultPool(3, 32),
		Budget:       150,
		Targets:      []jvm.Spec{{Impl: buginject.HotSpot, Version: 17}},
		Fuzz:         testCampaignCfg(32),
		Seed:         32,
		SeedSchedule: corpus.SchedulePower,
	}
	a, aCkpt := runForCheckpoint(t, ccfg, 1)
	b, bCkpt := runForCheckpoint(t, ccfg, 1)
	assertCampaignsEqual(t, a, b)
	if s1, s2 := normalizeCheckpoint(t, aCkpt), normalizeCheckpoint(t, bCkpt); s1 != s2 {
		t.Errorf("power campaign not deterministic:\nfirst:  %s\nsecond: %s", s1, s2)
	}
	if v := checkpointVersionOf(t, aCkpt); v != 4 {
		t.Errorf("power checkpoint version = %d, want 4", v)
	}
	if st := checkpointStateOf(t, aCkpt); st.Schedule == nil {
		t.Error("power checkpoint has no schedule block")
	}
}

// TestPowerParallelMatchesSequential: the round barrier makes the power
// schedule safe under speculative workers — 8 workers must reproduce
// the sequential power campaign byte-identically.
func TestPowerParallelMatchesSequential(t *testing.T) {
	ccfg := CampaignConfig{
		Seeds:        corpus.DefaultPool(4, 33),
		Budget:       200,
		Targets:      []jvm.Spec{{Impl: buginject.HotSpot, Version: 17}, {Impl: buginject.OpenJ9, Version: 17}},
		Fuzz:         testCampaignCfg(33),
		Seed:         33,
		SeedSchedule: corpus.SchedulePower,
	}
	seq, seqCkpt := runForCheckpoint(t, ccfg, 1)
	par, parCkpt := runForCheckpoint(t, ccfg, 8)
	assertCampaignsEqual(t, seq, par)
	if s, p := normalizeCheckpoint(t, seqCkpt), normalizeCheckpoint(t, parCkpt); s != p {
		t.Errorf("power checkpoint diverged under parallelism:\nsequential: %s\nparallel:   %s", s, p)
	}
}

// TestPowerCheckpointResumeEquivalence: interrupt a power campaign
// mid-flight and resume it; the restored arm statistics and the
// persisted round plan must continue the schedule exactly where it
// stopped, reproducing the uninterrupted run byte-identically.
func TestPowerCheckpointResumeEquivalence(t *testing.T) {
	ccfg := CampaignConfig{
		Seeds:        corpus.DefaultPool(3, 34),
		Budget:       150,
		Targets:      []jvm.Spec{{Impl: buginject.HotSpot, Version: 17}},
		Fuzz:         testCampaignCfg(34),
		Seed:         34,
		SeedSchedule: corpus.SchedulePower,
	}
	uninterrupted := RunCampaign(ccfg)

	ckpt := filepath.Join(t.TempDir(), "campaign.ckpt.json")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	partial, err := RunCampaignContext(ctx, ccfg, harness.Config{
		CheckpointPath: ckpt,
		OnTask: func(done int) {
			if done == 4 { // mid-round: the plan must resume, not replan
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !partial.Interrupted {
		t.Fatal("cancellation did not mark the result interrupted")
	}
	if partial.Executions >= uninterrupted.Executions {
		t.Fatalf("partial run executed %d >= %d: nothing left to resume", partial.Executions, uninterrupted.Executions)
	}

	resumed, err := RunCampaignContext(context.Background(), ccfg, harness.Config{
		CheckpointPath: ckpt,
		ResumePath:     ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Resumed {
		t.Error("resumed run not marked Resumed")
	}
	assertCampaignsEqual(t, uninterrupted, resumed)
}

// TestPowerResumeRequiresSchedule: a checkpoint carrying schedule
// state must refuse to resume into a schedule-free config instead of
// silently dropping the arm statistics.
func TestPowerResumeRequiresSchedule(t *testing.T) {
	ccfg := CampaignConfig{
		Seeds:        corpus.DefaultPool(3, 35),
		Budget:       60,
		Targets:      []jvm.Spec{{Impl: buginject.HotSpot, Version: 17}},
		Fuzz:         testCampaignCfg(35),
		Seed:         35,
		SeedSchedule: corpus.SchedulePower,
	}
	ckpt := filepath.Join(t.TempDir(), "campaign.ckpt.json")
	if _, err := RunCampaignContext(context.Background(), ccfg, harness.Config{CheckpointPath: ckpt}); err != nil {
		t.Fatal(err)
	}

	offCfg := ccfg
	offCfg.SeedSchedule = corpus.ScheduleOff
	if _, err := RunCampaignContext(context.Background(), offCfg, harness.Config{ResumePath: ckpt}); err == nil {
		t.Fatal("schedule-free resume of a power checkpoint succeeded; arm statistics were silently dropped")
	}
}

// TestScoreSeedsCacheReuse: a second scoring pass over the same corpus
// must come from the cache file, not fresh dry-runs. Proven by
// poisoning one cached vector between passes: if the poisoned value
// comes back, the dry-run was skipped.
func TestScoreSeedsCacheReuse(t *testing.T) {
	ctx := context.Background()
	seeds := corpus.DefaultPool(3, 36)
	path := filepath.Join(t.TempDir(), "scores.json")

	first, err := ScoreSeeds(ctx, seeds, nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(seeds) {
		t.Fatalf("scored %d of %d seeds", len(first), len(seeds))
	}
	for i, ft := range first {
		if len(ft.OBV) == 0 {
			t.Errorf("seed %d has no OBV from its dry-run", i)
		}
	}

	cache := corpus.LoadScoreCache(path)
	if cache.Len() != len(seeds) {
		t.Fatalf("cache holds %d entries, want %d", cache.Len(), len(seeds))
	}
	poisoned := cache.Get(corpus.HashSource(seeds[0].Source))
	if poisoned == nil {
		t.Fatal("seed 0 missing from cache")
	}
	poisoned.Methods = 999
	if err := cache.Save(); err != nil {
		t.Fatal(err)
	}

	second, err := ScoreSeeds(ctx, seeds, nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if second[0].Methods != 999 {
		t.Errorf("Methods = %d after poisoning the cache, want 999 (dry-run was not skipped)", second[0].Methods)
	}
}
