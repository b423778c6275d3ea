package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/buginject"
	"repro/internal/jit"
)

// Recall runs a long multi-version campaign and reports ground-truth
// recall: which of the 59 seeded bugs the fuzzer detected within budget,
// per implementation and component. The paper cannot measure this
// (real-JVM ground truth is unknown); it is this reproduction's added
// measurement, and the long-horizon sanity check that every bug class
// is reachable.
func Recall(w io.Writer, budget Budget) {
	targets := allTargets()
	detected := recallDetected(budget, jit.PlanDefault) // bug ID -> executions at detection

	type row struct {
		impl      buginject.Impl
		component string
		found     int
		total     int
	}
	agg := map[string]*row{}
	var order []string
	for _, b := range buginject.Catalog {
		key := string(b.Impl) + "/" + b.Component
		r := agg[key]
		if r == nil {
			r = &row{impl: b.Impl, component: b.Component}
			agg[key] = r
			order = append(order, key)
		}
		r.total++
		if _, ok := detected[b.ID]; ok {
			r.found++
		}
	}
	sort.Strings(order)

	fmt.Fprintf(w, "Recall vs ground truth (budget %d executions, %d seeds, targets cycled over %d builds)\n\n",
		budget.Executions, budget.Seeds, len(targets))
	var rows [][]string
	foundTotal, total := 0, 0
	for _, key := range order {
		r := agg[key]
		rows = append(rows, []string{string(r.impl), r.component,
			fmt.Sprintf("%d/%d", r.found, r.total)})
		foundTotal += r.found
		total += r.total
	}
	rows = append(rows, []string{"", "Total", fmt.Sprintf("%d/%d", foundTotal, total)})
	table(w, []string{"Impl", "Component", "Detected"}, rows)

	if len(detected) > 0 {
		fmt.Fprintln(w, "\nDetection order (bug @ cumulative executions):")
		type hit struct {
			id string
			at int
		}
		var hits []hit
		for id, at := range detected {
			hits = append(hits, hit{id, at})
		}
		sort.Slice(hits, func(i, j int) bool { return hits[i].at < hits[j].at })
		for _, h := range hits {
			b := buginject.ByID(h.id)
			fmt.Fprintf(w, "  %6d  %-14s %s (%s)\n", h.at, h.id, b.Component, b.Kind)
		}
	}
}
