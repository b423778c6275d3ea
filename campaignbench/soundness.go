package main

import (
	"fmt"

	"repro/internal/buginject"
	"repro/internal/jit"
	"repro/internal/jvm"
	"repro/internal/lang"
)

// soundness is the outcome of the substrate-soundness check.
type soundness struct {
	Compared      int      `json:"compared"`
	Skipped       int      `json:"skipped"`
	Disagreements []string `json:"disagreements,omitempty"`
}

// checkSoundness runs each sampled program twice on its spec with every
// seeded bug disarmed: once JIT-compiled under the plan it was fuzzed
// with, once in the pure interpreter. The outputs must be equal, or the
// simulator itself miscompiles. Runs that time out or exhaust the heap
// on either side are skipped (fuel is spent differently per tier), and
// counted. At most limit items are compared, in sample-key order.
func checkSoundness(items []sampleItem, limit int) (soundness, error) {
	var s soundness
	if len(items) > limit {
		items = items[:limit]
	}
	for _, it := range items {
		p, err := lang.Parse(it.source)
		if err != nil {
			return s, fmt.Errorf("soundness: sampled program does not re-parse: %w", err)
		}
		jitted, err := jvm.Run(lang.CloneProgram(p), it.spec, jvm.Options{
			ForceCompile: true, Plan: it.plan, Bugs: []*buginject.Bug{},
			MaxSteps: it.maxSteps, MaxHeapUnits: it.maxHeap,
		})
		if err != nil {
			return s, fmt.Errorf("soundness: compiled run: %w", err)
		}
		interp, err := jvm.Run(lang.CloneProgram(p), it.spec, jvm.Options{
			PureInterpreter: true, MaxSteps: it.maxSteps, MaxHeapUnits: it.maxHeap,
		})
		if err != nil {
			return s, fmt.Errorf("soundness: interpreted run: %w", err)
		}
		if cut(jitted) || cut(interp) {
			s.Skipped++
			continue
		}
		s.Compared++
		if got, want := jitted.Result.OutputString(), interp.Result.OutputString(); got != want {
			s.Disagreements = append(s.Disagreements, fmt.Sprintf("sample %016x on %s plan %s: compiled %q, interpreted %q",
				it.key, it.spec.Name(), jit.PlanID(it.plan), got, want))
		}
	}
	return s, nil
}

func cut(r *jvm.ExecResult) bool { return r.Result.TimedOut || r.Result.HeapExhausted }
