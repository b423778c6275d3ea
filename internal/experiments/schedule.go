package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/buginject"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/jit"
)

// ScheduleLeg is one cell of the scheduling comparison: a full campaign
// at the given seed-budget policy and plan-generation mode, scored
// against the 59-bug ground-truth catalog. MedianExecsToDetect is the
// median cumulative-execution count at first detection over the bugs
// the leg found — the power schedule's claim is that it detects at
// least as many bugs in fewer median executions, because energy moves
// budget toward diverse, high-yield (seed, plan-mode) arms.
type ScheduleLeg struct {
	Schedule            string  `json:"schedule"`
	PlanFuzz            string  `json:"plan_fuzz"`
	Detected            int     `json:"detected"`
	Executions          int     `json:"executions"`
	MedianExecsToDetect float64 `json:"median_execs_to_detection"`
	// MedianCommonExecsToDetect is the median over only the bugs BOTH
	// legs of the same plan-fuzz pair detected — the paired
	// time-to-detection statistic. The unpaired median punishes the leg
	// that detects more: its extra bugs are necessarily late detections,
	// so they drag its median up even when it reaches every shared bug
	// sooner.
	MedianCommonExecsToDetect float64 `json:"median_common_execs_to_detection,omitempty"`
}

// scheduleLegPlans pairs each schedule mode with the plan modes the
// BENCH artifact compares: the fixed pipeline and the fully fuzzed one
// (which also gives the power schedule its plan-mode arm axis).
func scheduleLegPlans() []struct {
	Schedule corpus.ScheduleMode
	Plan     jit.PlanMode
} {
	return []struct {
		Schedule corpus.ScheduleMode
		Plan     jit.PlanMode
	}{
		{corpus.ScheduleOff, jit.PlanDefault},
		{corpus.SchedulePower, jit.PlanDefault},
		{corpus.ScheduleOff, jit.PlanFull},
		{corpus.SchedulePower, jit.PlanFull},
	}
}

// campaignDetected runs one campaign-level recall leg over the shared
// budget, pool and targets (tune adjusts the leg's knobs) and returns
// bug ID -> cumulative executions at first detection, bug ID ->
// generator provenance of that first detection ("" = original pool
// seed), and the executions spent. Campaign-level (core.RunCampaign,
// not per-seed tool loops) because the power schedule and the
// generators' pool refresh only exist in the round planner.
func campaignDetected(budget Budget, tune func(*core.CampaignConfig)) (detected map[string]int, provenance map[string]string, execs int) {
	targets := allTargets()
	fcfg := core.DefaultConfig(targets[0])
	fcfg.Seed = budget.Seed
	fcfg.StructuredOBV = true
	fcfg.Executor = budget.Executor
	ccfg := core.CampaignConfig{
		Seeds:    pool(budget),
		Budget:   budget.Executions,
		Targets:  targets,
		Fuzz:     fcfg,
		Seed:     budget.Seed,
		Executor: budget.Executor,
	}
	tune(&ccfg)
	res := core.RunCampaign(ccfg)
	detected, provenance = map[string]int{}, map[string]string{}
	for i := range res.Findings {
		f := &res.Findings[i]
		if f.Bug == nil {
			continue
		}
		if at, ok := detected[f.Bug.ID]; !ok || f.AtExecution < at {
			detected[f.Bug.ID] = f.AtExecution
			provenance[f.Bug.ID] = f.GeneratorID
		}
	}
	return detected, provenance, res.Executions
}

// medianDetection returns the median first-detection execution count.
func medianDetection(detected map[string]int) float64 {
	if len(detected) == 0 {
		return 0
	}
	ats := make([]int, 0, len(detected))
	for _, at := range detected {
		ats = append(ats, at)
	}
	sort.Ints(ats)
	n := len(ats)
	if n%2 == 1 {
		return float64(ats[n/2])
	}
	return float64(ats[n/2-1]+ats[n/2]) / 2
}

// scheduleLegRun pairs a leg's summary with its raw detection map.
type scheduleLegRun struct {
	leg      ScheduleLeg
	detected map[string]int
}

// runScheduleLegs executes the 2x2 comparison and fills in the paired
// common-bug medians per (off, power) pair.
func runScheduleLegs(budget Budget) []scheduleLegRun {
	var runs []scheduleLegRun
	for _, lg := range scheduleLegPlans() {
		detected, _, execs := campaignDetected(budget, func(c *core.CampaignConfig) {
			c.Fuzz.PlanFuzz = lg.Plan
			c.SeedSchedule = lg.Schedule
		})
		plan := string(lg.Plan)
		if plan == "" {
			plan = "off"
		}
		runs = append(runs, scheduleLegRun{
			leg: ScheduleLeg{
				Schedule:            string(lg.Schedule),
				PlanFuzz:            plan,
				Detected:            len(detected),
				Executions:          execs,
				MedianExecsToDetect: medianDetection(detected),
			},
			detected: detected,
		})
	}
	// scheduleLegPlans orders legs (off, power) per plan mode.
	for i := 0; i+1 < len(runs); i += 2 {
		off, power := &runs[i], &runs[i+1]
		common := map[string]bool{}
		for id := range off.detected {
			if _, ok := power.detected[id]; ok {
				common[id] = true
			}
		}
		restrict := func(m map[string]int) map[string]int {
			out := map[string]int{}
			for id, at := range m {
				if common[id] {
					out[id] = at
				}
			}
			return out
		}
		off.leg.MedianCommonExecsToDetect = medianDetection(restrict(off.detected))
		power.leg.MedianCommonExecsToDetect = medianDetection(restrict(power.detected))
	}
	return runs
}

// BenchScheduleLegs runs the 2x2 scheduling comparison (schedule off vs
// power, plan-fuzz off vs full) for the BENCH artifact.
func BenchScheduleLegs(budget Budget) []ScheduleLeg {
	runs := runScheduleLegs(budget)
	legs := make([]ScheduleLeg, 0, len(runs))
	for _, r := range runs {
		legs = append(legs, r.leg)
	}
	return legs
}

// ScheduleRecall reruns the ground-truth recall campaign per scheduling
// leg and reports detections and executions-to-detection, schedule off
// vs power at each plan mode — the corpus subsystem's validation: power
// should detect at least as many of the 59 seeded bugs while reaching
// them in fewer median executions.
func ScheduleRecall(w io.Writer, budget Budget) {
	fmt.Fprintf(w, "Power-schedule recall vs ground truth (budget %d executions per leg, %d seeds)\n\n",
		budget.Executions, budget.Seeds)

	runs := runScheduleLegs(budget)

	var rows [][]string
	for _, r := range runs {
		rows = append(rows, []string{
			r.leg.Schedule, r.leg.PlanFuzz,
			fmt.Sprintf("%d/%d", r.leg.Detected, len(buginject.Catalog)),
			fmt.Sprintf("%d", r.leg.Executions),
			fmt.Sprintf("%.0f", r.leg.MedianExecsToDetect),
			fmt.Sprintf("%.0f", r.leg.MedianCommonExecsToDetect),
		})
	}
	table(w, []string{"Schedule", "PlanFuzz", "Detected", "Execs", "MedianToDetect", "MedianCommon"}, rows)

	// Bugs only the power schedule reached, per plan mode: the energy
	// allocation's net gain over cursor order at the same budget.
	for i := 0; i+1 < len(runs); i += 2 {
		off, power := runs[i], runs[i+1]
		var powerOnly []string
		for id := range power.detected {
			if _, ok := off.detected[id]; !ok {
				powerOnly = append(powerOnly, id)
			}
		}
		sort.Strings(powerOnly)
		if len(powerOnly) > 0 {
			fmt.Fprintf(w, "\nDetected only with -schedule=power (plan-fuzz %s, %d):\n",
				power.leg.PlanFuzz, len(powerOnly))
			for _, id := range powerOnly {
				b := buginject.ByID(id)
				fmt.Fprintf(w, "  %-14s %s (%s, %s)\n", id, b.Component, b.Kind, b.Impl)
			}
		} else {
			fmt.Fprintf(w, "\nNo power-only bugs at plan-fuzz %s at this budget (raise -budget).\n",
				power.leg.PlanFuzz)
		}
	}
}
