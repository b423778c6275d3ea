package experiments

import (
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/jit"
)

// TestCampaignIsolatedFromPriorWork pins that a campaign's results are
// a pure function of its own configuration: running heavy unrelated
// work in the same process first — other campaigns at different
// budgets, a parallel campaign, micro-benchmarks, GOMAXPROCS changes —
// must not move a single detection.
//
// This replays, in miniature, the ordering that once made BenCHmark's
// schedule legs look flaky (ROADMAP: a power x plan-full leg detected
// one bug fewer inside the full bench run than standalone at the same
// budget). A full-scale replay of the pre-v3 bench ordering at the
// recorded 1500x20 leg reproduced byte-identical results, so the shift
// was config drift between the bench harness and the standalone run
// (warm-up budget and leg order changed between versions), not shared
// state. The suspects audited and cleared on the way: no global
// math/rand in non-test code, jit.Cache is campaign-scoped and fully
// keyed, the heap budget is logical units rather than wall-clock or
// allocator state, sync.Pools reset their contents, and the in-process
// executor is stateless. This test keeps all of that true.
func TestCampaignIsolatedFromPriorWork(t *testing.T) {
	budget := Budget{Executions: 300, Seeds: 8, Seed: 1}
	leg := func() string {
		detected, _, execs := campaignDetected(budget, func(c *core.CampaignConfig) {
			c.Fuzz.PlanFuzz = jit.PlanFull
			c.SeedSchedule = corpus.SchedulePower
		})
		b, err := json.Marshal(detected)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("execs=%d detected=%s", execs, b)
	}
	cold := leg()

	// Unrelated in-process work in the bench harness's order: warm-up
	// campaign, sequential and parallel timing legs, micro-benchmarks,
	// and campaigns under shifted GOMAXPROCS.
	timeCampaign(Budget{Executions: 125, Seeds: 8, Seed: 3}, true, 4)
	timeCampaign(Budget{Executions: 125, Seeds: 8, Seed: 1}, false, 1)
	benchOBVExtraction()
	prev := runtime.GOMAXPROCS(0)
	runtime.GOMAXPROCS(2)
	timeCampaign(Budget{Executions: 125, Seeds: 8, Seed: 2}, true, 2)
	runtime.GOMAXPROCS(prev)

	if warm := leg(); warm != cold {
		t.Errorf("campaign shifted after unrelated in-process work:\ncold %s\nwarm %s", cold, warm)
	}
}
