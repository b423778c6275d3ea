package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/exec"
	"repro/internal/generate"
	"repro/internal/harness"
	"repro/internal/jit"
	"repro/internal/jvm"
	"repro/internal/lang"
	"repro/internal/triage"
)

// workload is one campaign configuration the benchmark measures. Every
// workload fuzzes the same pinned corpus and campaign seed (see
// README.md for why); the flags below are the CLI's, as mopfuzzer would
// be invoked with them.
type workload struct {
	name     string
	spec     string       // -jdk
	planFuzz jit.PlanMode // -plan-fuzz
	pool     bool         // -backend pool -pool-children 2
	workers  int          // -workers
	// durable adds -schedule power, -generators randprog,template,style,
	// a fresh -triage-dir and a -checkpoint file.
	durable bool
	budget  int // -budget
}

var workloads = []workload{
	{name: "hotspot-inproc", spec: "openjdk-17", workers: 1, budget: 150},
	{name: "openj9-planfuzz-pool", spec: "openj9-17", planFuzz: jit.PlanFull, pool: true, workers: 2, budget: 150},
	{name: "generated-durable", spec: "openjdk-17", workers: 1, durable: true, budget: 150},
}

const (
	corpusSize   = 8 // corpus.DefaultPool(8, ...)
	corpusSeed   = 1 // the corpus and campaign seed, pinned
	poolChildren = 2
	childTimeout = 10 * time.Second
)

// generators is the durable workload's -generators list.
var generators = []string{"randprog", "template", "style"}

// warmProgram is the trivial program a fresh pool runs once per child
// before the campaign starts, so the children are spawned during set-up.
const warmProgram = "class T { static void main() { print(7); } }"

// runMode selects what one campaign instance is for.
type runMode int

const (
	// modeProbe stops at the first budgeted execution: it measures set-up.
	modeProbe runMode = iota
	// modeMeasure is a full campaign with the workload's own executor.
	modeMeasure
	// modeTrace is a full campaign with the traced executor.
	modeTrace
)

// instance is what one campaign run left behind.
type instance struct {
	setup   time.Duration // workload start -> first budgeted execution
	wall    time.Duration // first budgeted execution -> campaign and triage done
	cpu     time.Duration // user+sys of this process and its reaped children
	res     *core.CampaignResult
	digest  string
	calls   counters // the campaign's executor
	probes  counters // the triage worker's executor
	triage  triage.Stats
	entries []*triage.Entry
	pool    exec.Stats
	parse   corpus.ParseCacheStats
	jit     jit.CacheStats
	// Traced runs only.
	layers     *layerTotals // in-process replica totals
	wire       *wireLog     // pool requests, for replay
	checkpoint []byte       // final checkpoint file contents
}

// bench runs the campaigns of one workload.
type bench struct {
	w       workload
	spec    jvm.Spec
	minijvm string
	workDir string
}

func newBench(w workload, minijvm, workDir string) (*bench, error) {
	spec, err := jvm.ParseSpec(w.spec)
	if err != nil {
		return nil, err
	}
	b := &bench{w: w, spec: spec, minijvm: minijvm, workDir: workDir}
	if w.pool {
		if _, err := os.Stat(minijvm); err != nil {
			return nil, fmt.Errorf("minijvm binary: %w", err)
		}
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	return b, nil
}

// runOnce runs one campaign of the workload from scratch: corpus,
// executor, triage store and checkpoint are all created anew, so every
// instance pays the full set-up.
func (b *bench) runOnce(ctx context.Context, mode runMode, sample *sampler) (*instance, error) {
	// Collect the previous campaign's garbage first, so every campaign
	// starts from the same heap and GC pacing.
	runtime.GC()
	inst := &instance{}
	cpu0 := cpuTime()
	start := time.Now()

	seeds := seedPool()
	var inner exec.Executor // nil: in-process
	var pool *exec.Pool
	switch {
	case b.w.pool:
		pool = exec.NewPool(exec.PoolConfig{Path: b.minijvm, Timeout: childTimeout, Children: poolChildren})
		defer pool.Close()
		if err := warmPool(ctx, pool, b.spec); err != nil {
			return nil, err
		}
		inner = pool
	case mode == modeTrace:
		rep := newReplica()
		inst.layers = rep.totals
		inner = rep
	}
	rec := newRecorder(inner)
	rec.sample = sample
	if mode == modeTrace && pool != nil {
		inst.wire = &wireLog{}
		rec.wire = inst.wire
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	if mode == modeProbe {
		rec.onFirstBudgeted = cancel
	}

	fz := core.DefaultConfig(b.spec)
	fz.Seed = corpusSeed
	fz.StructuredOBV = true
	fz.PlanFuzz = b.w.planFuzz
	fz.Executor = rec
	fz.CompileCache = jit.NewCache(0)
	parse := corpus.NewParseCache()
	ccfg := core.CampaignConfig{
		Seeds:      seeds,
		Budget:     b.w.budget,
		Targets:    []jvm.Spec{b.spec},
		Fuzz:       fz,
		Seed:       corpusSeed,
		Workers:    b.w.workers,
		Executor:   rec,
		ParseCache: parse,
	}
	hcfg := harness.Config{MaxRetries: 2, Backoff: 100 * time.Millisecond}

	var store *triage.Store
	var worker *triage.Worker
	var probes *recorder
	var ckPath string
	if b.w.durable {
		dir, err := os.MkdirTemp(b.workDir, b.w.name+"-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		store, err = triage.Open(filepath.Join(dir, "triage"))
		if err != nil {
			return nil, err
		}
		defer store.Close()
		probes = newRecorder(nil)
		worker, err = triage.NewWorker(triage.WorkerConfig{Store: store, Executor: probes})
		if err != nil {
			return nil, err
		}
		worker.Start(ctx)
		ccfg.OnFinding = func(f core.Finding) { worker.Submit(f) }
		ccfg.SeedSchedule = corpus.SchedulePower
		ccfg.Generators = generators
		ckPath = filepath.Join(dir, "checkpoint.json")
		hcfg.CheckpointPath = ckPath
	}

	res, err := core.RunCampaignContext(runCtx, ccfg, hcfg)
	if worker != nil {
		if cerr := worker.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("triage store flush: %w", cerr)
		}
		inst.triage = worker.Stats()
		inst.entries = store.Entries()
		inst.probes = probes.snapshot()
	}
	end := time.Now()
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	if pool != nil {
		inst.pool = pool.Stats()
		pool.Close() // reaps the children, so their CPU time is counted below
	}
	inst.cpu = cpuTime() - cpu0
	inst.res = res
	inst.calls = rec.snapshot()
	inst.parse = parse.Stats()
	inst.jit = fz.CompileCache.Stats()
	if inst.calls.first.IsZero() {
		return nil, fmt.Errorf("campaign made no budgeted execution")
	}
	inst.setup = inst.calls.first.Sub(start)
	inst.wall = end.Sub(inst.calls.first)
	if mode == modeProbe {
		return inst, nil
	}
	if res.Interrupted {
		return nil, fmt.Errorf("campaign was interrupted")
	}
	inst.digest = digest(res, inst.entries)
	if mode == modeTrace && ckPath != "" {
		if inst.checkpoint, err = os.ReadFile(ckPath); err != nil {
			return nil, err
		}
	}
	return inst, nil
}

// seedPool is the corpus every workload fuzzes.
func seedPool() []corpus.Seed { return corpus.DefaultPool(corpusSize, corpusSeed) }

// mutatorFillers is the statement-hole filler the campaign hands the
// template generator: a deterministically chosen applicable mutator.
// The durable workload's generator replay needs the same one to
// reproduce the campaign's template emissions.
func mutatorFillers() []generate.StmtFiller {
	muts := core.AllMutators()
	return []generate.StmtFiller{
		func(p *lang.Program, loc *lang.Location, rng *rand.Rand) bool {
			var applicable []core.Mutator
			for _, m := range muts {
				if m.Applicable(loc) {
					applicable = append(applicable, m)
				}
			}
			if len(applicable) == 0 {
				return false
			}
			_, err := applicable[rng.Intn(len(applicable))].Apply(p, loc, rng)
			return err == nil
		},
	}
}

// warmPool runs one trivial execution per child concurrently, so every
// child is spawned and past its handshake before the campaign starts.
func warmPool(ctx context.Context, pool *exec.Pool, spec jvm.Spec) error {
	prog, err := lang.Parse(warmProgram)
	if err != nil {
		return err
	}
	errs := make([]error, poolChildren)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = pool.Execute(ctx, lang.CloneProgram(prog), spec, jvm.Options{})
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("pool warm-up: %w", err)
		}
	}
	return nil
}
