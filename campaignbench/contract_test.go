package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func checkMetrics(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics reported, BENCHMARK.json declares %d", what, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("%s: %s not reported", what, w.Name)
		} else if m.Unit != w.Unit {
			t.Errorf("%s: %s reported in %s, declared in %s", what, w.Name, m.Unit, w.Unit)
		}
	}
}

// Every workload, shrunk to a tiny budget, reports exactly the metrics
// BENCHMARK.json declares, and its output checks pass.
func TestWorkloadsReportTheDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs campaigns")
	}
	d := readDeclared(t)
	if len(d.Workload) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the driver has %d", len(d.Workload), len(workloads))
	}
	dir := t.TempDir()
	minijvm := filepath.Join(dir, "minijvm")
	if out, err := exec.Command("go", "build", "-o", minijvm, "repro/cmd/minijvm").CombinedOutput(); err != nil {
		t.Fatalf("building minijvm: %v\n%s", err, out)
	}
	ctx := context.Background()
	for i, w := range workloads {
		if w.name != d.Workload[i].Name {
			t.Errorf("workload %d is %s, BENCHMARK.json says %s", i, w.name, d.Workload[i].Name)
		}
		w.budget = 30
		b, err := newBench(w, minijvm, filepath.Join(dir, "work"))
		if err != nil {
			t.Fatal(err)
		}
		var rep report
		res, err := b.measure(ctx, &rep, 1, time.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkMetrics(t, w.name+" -trace 0", res.Metrics, d.EndToEnd)
		if len(rep.Problems) > 0 || res.Attempted == 0 {
			t.Errorf("%s -trace 0: problems %v, %d attempted", w.name, rep.Problems, res.Attempted)
		}
		rep = report{}
		res, err = b.traced(ctx, &rep, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkMetrics(t, w.name+" -trace 1", res.Metrics, d.PerLayer)
		if len(rep.Problems) > 0 {
			t.Errorf("%s -trace 1: problems %v", w.name, rep.Problems)
		}
	}
}
