package core

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/buginject"
	"repro/internal/corpus"
	"repro/internal/harness"
	"repro/internal/jvm"
)

// TestResumeOlderCheckpoints resumes checkpoints written by builds that
// still stamped v2 (plain) and v3 (power schedule): each was cancelled
// after four tasks of the campaign below. Saves now always stamp v4,
// and a v2 or v3 snapshot is a v4 one without the newer sections, so
// the resumed campaign must match an uninterrupted run and its next
// checkpoint must carry v4.
func TestResumeOlderCheckpoints(t *testing.T) {
	for _, c := range []struct {
		fixture string
		version int
		seed    int64
		sched   corpus.ScheduleMode
	}{
		{"checkpoint-v2.json", 2, 31, ""},
		{"checkpoint-v3.json", 3, 32, corpus.SchedulePower},
	} {
		t.Run(c.fixture, func(t *testing.T) {
			ccfg := CampaignConfig{
				Seeds:        corpus.DefaultPool(3, c.seed),
				Budget:       150,
				Targets:      []jvm.Spec{{Impl: buginject.HotSpot, Version: 17}},
				Fuzz:         testCampaignCfg(c.seed),
				Seed:         c.seed,
				SeedSchedule: c.sched,
			}
			data, err := os.ReadFile(filepath.Join("testdata", c.fixture))
			if err != nil {
				t.Fatal(err)
			}
			if v := checkpointVersionOf(t, data); v != c.version {
				t.Fatalf("fixture version = %d, want %d", v, c.version)
			}
			ckpt := filepath.Join(t.TempDir(), "campaign.ckpt.json")
			if err := os.WriteFile(ckpt, data, 0o644); err != nil {
				t.Fatal(err)
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
			assertCampaignsEqual(t, RunCampaign(ccfg), resumed)
			after, err := os.ReadFile(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			if v := checkpointVersionOf(t, after); v != 4 {
				t.Errorf("checkpoint rewritten at version %d, want 4", v)
			}
		})
	}
}
