// Command campaignbench is the repository's benchmark. It drives
// core.RunCampaignContext in-process on one of three fixed campaign
// workloads, checks the campaign's outputs, and prints one JSON result
// line:
//
//	campaignbench -workload hotspot-inproc -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it reports the end-to-end metrics of untraced campaigns;
// with -trace 1 it runs a traced campaign between two untraced ones and
// reports the per-layer metrics. README.md describes the workloads, the
// metrics, and what is deliberately left unmeasured. Normally run via
// run.sh, which builds it and the minijvm child binary first.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

const (
	setupProbes    = 9  // set-up-only runs per -trace 0 invocation
	minRepeats     = 2  // measured campaigns per -trace 0 invocation, at least
	maxRepeats     = 12 // and at most
	sampleEvery    = 4  // soundness sample: one execution in four, by content hash
	soundnessLimit = 60 // programs compared per invocation, at most
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is printed on the line before the result: provenance and the
// outcome of every output check.
type report struct {
	Workload    string     `json:"workload"`
	Trace       int        `json:"trace"`
	Env         provenance `json:"env"`
	Campaigns   int        `json:"campaigns"`
	Digest      string     `json:"digest"`
	Soundness   soundness  `json:"soundness"`
	Problems    []string   `json:"problems,omitempty"`
	ExecsPerS   []float64  `json:"execs_per_s_runs,omitempty"`
	TracedEPS   float64    `json:"traced_execs_per_s,omitempty"`
	UntracedEPS float64    `json:"untraced_execs_per_s,omitempty"`
	SoundnessS  float64    `json:"soundness_s"`
	ElapsedS    float64    `json:"elapsed_s"`
}

func main() {
	name := flag.String("workload", "", "workload name: hotspot-inproc, openj9-planfuzz-pool or generated-durable")
	seed := flag.Int64("seed", 1, "workload seed (selects the substrate-soundness sample)")
	seconds := flag.Int("seconds", 20, "how long the measured campaigns of a -trace 0 run last, at least")
	trace := flag.Int("trace", 0, "0: end-to-end metrics of untraced campaigns; 1: per-layer metrics of a traced campaign")
	minijvm := flag.String("minijvm", ".bench_build/minijvm", "minijvm binary for the pool workload")
	workDir := flag.String("work", ".bench_build/work", "directory for triage stores and checkpoints")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "campaignbench: need -workload (one of %s), -trace 0|1 and -seconds >= 1\n", workloadNames())
		os.Exit(2)
	}
	b, err := newBench(*w, *minijvm, *workDir)
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()
	start := time.Now()
	rep := report{Workload: w.name, Trace: *trace, Env: collectProvenance(*seed)}
	var res *result
	if *trace == 0 {
		res, err = b.measure(ctx, &rep, *seed, time.Duration(*seconds)*time.Second)
	} else {
		res, err = b.traced(ctx, &rep, *seed)
	}
	if err != nil {
		fatal(err)
	}
	res.Correct = len(rep.Problems) == 0
	rep.ElapsedS = time.Since(start).Seconds()
	printJSON(map[string]report{"report": rep})
	printJSON(res)
	if !res.Correct {
		for _, p := range rep.Problems {
			fmt.Fprintln(os.Stderr, "campaignbench: check failed:", p)
		}
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

func printJSON(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "campaignbench:", err)
	os.Exit(1)
}

// measure runs set-up probes, then full untraced campaigns until the
// measuring time is spent, and reports the end-to-end metrics.
func (b *bench) measure(ctx context.Context, rep *report, seed int64, seconds time.Duration) (*result, error) {
	sample := newSampler(seed, sampleEvery)
	var setups []float64
	for i := 0; i < setupProbes; i++ {
		inst, err := b.runOnce(ctx, modeProbe, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		setups = append(setups, inst.setup.Seconds())
	}
	var runs []*instance
	start := time.Now()
	for len(runs) < minRepeats || (time.Since(start) < seconds && len(runs) < maxRepeats) {
		inst, err := b.runOnce(ctx, modeMeasure, sample)
		if err != nil {
			return nil, err
		}
		runs = append(runs, inst)
		setups = append(setups, inst.setup.Seconds())
	}

	res := &result{Metrics: map[string]metric{}}
	var eps, cpu []float64
	for i, inst := range runs {
		if inst.digest != runs[0].digest {
			rep.Problems = append(rep.Problems, fmt.Sprintf("campaign %d digest %s differs from campaign 0 digest %s", i, inst.digest, runs[0].digest))
		}
		n := float64(inst.res.Executions)
		eps = append(eps, n/inst.wall.Seconds())
		cpu = append(cpu, float64(inst.cpu.Microseconds())/1000/n)
		res.Attempted += attempted(inst)
		res.Failed += failed(inst)
	}
	first := runs[0].res
	var detect []float64
	for _, f := range first.Findings {
		detect = append(detect, float64(f.AtExecution))
	}
	selfRSS, childRSS := peakRSS()
	if !b.w.pool {
		childRSS = 0
	}
	res.Metrics["execs_per_s"] = metric{median(eps), "1/s"}
	res.Metrics["cpu_ms_per_exec"] = metric{median(cpu), "ms"}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["peak_rss_mb"] = metric{float64(selfRSS+childRSS) / (1 << 20), "MB"}
	res.Metrics["unique_bugs"] = metric{float64(len(first.Findings)), "count"}
	res.Metrics["execs_to_detect_median"] = metric{median(detect), "count"}

	rep.Campaigns = len(runs)
	rep.Digest = runs[0].digest
	rep.ExecsPerS = eps
	return res, b.soundness(rep, sample)
}

// traced runs an untraced campaign, a traced one and another untraced
// one, checks that all three produce the same result, and reports the
// per-layer metrics. The first campaign of a process runs cold, so the
// tracing overhead is taken against the second untraced one.
func (b *bench) traced(ctx context.Context, rep *report, seed int64) (*result, error) {
	sample := newSampler(seed, sampleEvery)
	cold, err := b.runOnce(ctx, modeMeasure, sample)
	if err != nil {
		return nil, err
	}
	tr, err := b.runOnce(ctx, modeTrace, nil)
	if err != nil {
		return nil, err
	}
	ref, err := b.runOnce(ctx, modeMeasure, nil)
	if err != nil {
		return nil, err
	}
	for _, inst := range []*instance{tr, ref} {
		if inst.digest != cold.digest {
			rep.Problems = append(rep.Problems, fmt.Sprintf("campaign digest %s differs from the first campaign's %s", inst.digest, cold.digest))
		}
	}
	res := &result{}
	for _, inst := range []*instance{cold, tr, ref} {
		res.Attempted += attempted(inst)
		res.Failed += failed(inst)
	}
	res.Metrics, err = b.layerMetrics(ctx, rep, ref, tr)
	if err != nil {
		return nil, err
	}
	rep.Campaigns = 3
	rep.Digest = cold.digest
	return res, b.soundness(rep, sample)
}

func (b *bench) soundness(rep *report, sample *sampler) error {
	start := time.Now()
	s, err := checkSoundness(sample.sorted(), soundnessLimit)
	if err != nil {
		return err
	}
	rep.SoundnessS = time.Since(start).Seconds()
	rep.Soundness = s
	for _, d := range s.Disagreements {
		rep.Problems = append(rep.Problems, "substrate bug: "+d)
	}
	return nil
}

// attempted counts every executor call of a campaign instance: budgeted
// executions, seed-scoring dry-runs and triage reduction probes.
func attempted(inst *instance) int {
	return inst.calls.budgetedCalls() + inst.calls.other + inst.probes.budgetedCalls() + inst.probes.other
}

// failed counts harness faults, seed errors and executor calls that
// returned a backend fault.
func failed(inst *instance) int {
	return len(inst.res.Faults) + len(inst.res.SeedErrors) + inst.calls.backendErrs + inst.probes.backendErrs
}
