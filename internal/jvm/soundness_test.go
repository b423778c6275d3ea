package jvm

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/buginject"
	"repro/internal/generate/styles"
	"repro/internal/jit"
	"repro/internal/lang"
	"repro/internal/randprog"
)

// TestSubstrateSoundness pins the property the whole oracle rests on:
// with no seeded bug armed, forced compilation under the default plan
// and under fuzzed minimal and full plans prints exactly what the pure
// interpreter prints, on both pipelines. Any disagreement is a
// simulator bug, never a finding. The programs are randprog output plus
// one program per composition style; runs that time out or exhaust the
// heap on either side are skipped and counted, not filtered out of the
// corpus.
func TestSubstrateSoundness(t *testing.T) {
	type program struct{ name, src string }
	var progs []program
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 12; i++ {
		progs = append(progs, program{fmt.Sprintf("randprog-%d", i), randprog.Generate(rng)})
	}
	for i, st := range styles.All() {
		progs = append(progs, program{"style-" + st.Name, st.Generate(rand.New(rand.NewSource(int64(i + 1))))})
	}
	plans := []*jit.Plan{jit.DefaultPlan()}
	for seed := int64(1); seed <= 2; seed++ {
		plans = append(plans, jit.GeneratePlan(seed, jit.PlanMinimal), jit.GeneratePlan(seed, jit.PlanFull))
	}
	specs := []Spec{Reference(), {Impl: buginject.OpenJ9, Version: 17}}
	const maxSteps = 2_000_000

	cut := func(r *ExecResult) bool { return r.Result.TimedOut || r.Result.HeapExhausted }
	compared, skipped := 0, 0
	for _, pr := range progs {
		p, err := lang.Parse(pr.src)
		if err != nil {
			t.Fatalf("%s: %v\n%s", pr.name, err, pr.src)
		}
		for _, spec := range specs {
			ref, err := Run(lang.CloneProgram(p), spec, Options{PureInterpreter: true, MaxSteps: maxSteps})
			if err != nil {
				t.Fatalf("%s interpreted: %v", pr.name, err)
			}
			for _, plan := range plans {
				got, err := Run(lang.CloneProgram(p), spec, Options{
					ForceCompile: true, Bugs: []*buginject.Bug{}, Plan: plan, MaxSteps: maxSteps,
				})
				if err != nil {
					t.Fatalf("%s on %s plan %s: %v", pr.name, spec.Name(), jit.PlanID(plan), err)
				}
				if cut(ref) || cut(got) {
					skipped++
					continue
				}
				compared++
				if g, w := got.Result.OutputString(), ref.Result.OutputString(); g != w {
					t.Errorf("%s on %s plan %s: compiled %q, interpreted %q\n%s",
						pr.name, spec.Name(), jit.PlanID(plan), g, w, pr.src)
				}
			}
		}
	}
	t.Logf("compared %d runs, skipped %d (timeout or heap exhausted)", compared, skipped)
	if compared < 2*skipped {
		t.Errorf("only %d of %d runs compared: the property is barely exercised", compared, compared+skipped)
	}
}
