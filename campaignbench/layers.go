package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/buginject"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/exec"
	"repro/internal/generate"
	"repro/internal/harness"
	"repro/internal/jit"
	"repro/internal/jvm"
	"repro/internal/lang"
	"repro/internal/profile"
)

// checkpointRepeats is how many times the final checkpoint is saved and
// loaded; the median of each is reported.
const checkpointRepeats = 15

// layerMetrics assembles the per-layer metrics of a traced run. Metrics
// of a layer the workload does not exercise are reported as 0.
func (b *bench) layerMetrics(ctx context.Context, rep *report, ref, tr *instance) (map[string]metric, error) {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	c := tr.calls

	// core
	untraced := float64(ref.res.Executions) / ref.wall.Seconds()
	traced := float64(tr.res.Executions) / tr.wall.Seconds()
	rep.UntracedEPS, rep.TracedEPS = untraced, traced
	put("trace.overhead_execs_per_s", untraced-traced, "1/s")
	put("core.fuzz_self_s", (tr.wall - c.inCalls).Seconds(), "s")
	put("core.exec_calls_per_exec", ratio(float64(c.budgetedCalls()), float64(tr.res.Executions)), "ratio")

	// exec
	for k := callKind(0); k < nKinds; k++ {
		put("exec.calls."+kindNames[k], float64(c.calls[k]), "count")
		put("exec.busy_s."+kindNames[k], c.busy[k].Seconds(), "s")
	}
	pct, tailV := tail(c.durs)
	put("exec.call_p50_ms", ms(p50(c.durs)), "ms")
	put("exec.call_tail_ms", ms(tailV), "ms")
	put("exec.call_tail_pct", pct, "%")
	put("exec.call_samples", float64(len(c.durs)), "count")
	put("exec.pool_spawns", float64(tr.pool.Spawns), "count")
	put("exec.pool_mean_batch", tr.pool.MeanBatch(), "count")
	put("exec.pool_spawns_avoided", float64(tr.pool.SpawnsAvoided), "count")

	// jvm
	diffCalls := c.calls[kindDiff] + c.calls[kindPlanDiff]
	put("jvm.diff_fanout", ratio(float64(c.runs), float64(diffCalls)), "count")
	put("jvm.diff_s", (c.busy[kindDiff] + c.busy[kindPlanDiff]).Seconds(), "s")

	// lang, bytecode, vm, jit, profile: from the replica, which ran the
	// campaign itself in-process, or replayed the pool's requests.
	layers, jitStats := tr.layers, tr.jit
	wireOverhead := 0.0
	if tr.wire != nil {
		var err error
		var replay time.Duration
		replay, layers, jitStats, err = replayWire(rep, tr.wire)
		if err != nil {
			return nil, err
		}
		wireOverhead = (c.busy[kindExec] + c.busy[kindDiff] + c.busy[kindPlanDiff] - replay).Seconds()
	}
	put("exec.wire_overhead_s", wireOverhead, "s")
	put("lang.check_s", layers.check.Seconds(), "s")
	put("bytecode.compile_s", layers.compile.Seconds(), "s")
	put("bytecode.verify_s", layers.verify.Seconds(), "s")
	put("vm.interp_self_s", (layers.self[spanRun] + layers.self[spanCallback]).Seconds(), "s")
	put("vm.steps", float64(c.steps), "count")
	put("vm.alloc_count", float64(c.allocs), "count")
	put("vm.timeouts", float64(c.timeouts), "count")
	put("jit.compiled_exec_s", layers.self[spanInvoke].Seconds(), "s")
	put("jit.compile_s.c1", layers.self[spanCompileC1].Seconds(), "s")
	put("jit.compile_s.c2", layers.self[spanCompileC2].Seconds(), "s")
	put("jit.compiles", float64(layers.compiles[0]+layers.compiles[1]), "count")
	put("jit.cache_hit_ratio", ratio(float64(jitStats.Hits), float64(jitStats.Hits+jitStats.Misses)), "ratio")
	put("profile.obv_s", layers.obv.Seconds(), "s")

	// corpus
	put("corpus.parse_hit_ratio", ratio(float64(tr.parse.Hits), float64(tr.parse.Hits+tr.parse.Misses)), "ratio")

	// harness, corpus scoring, generate, triage, reduce: durable only.
	var d durableLayers
	if b.w.durable {
		var err error
		if d, err = b.durable(ctx, rep, tr); err != nil {
			return nil, err
		}
	}
	put("harness.checkpoint_bytes", float64(len(tr.checkpoint)), "B")
	put("harness.checkpoint_save_s", d.save.Seconds(), "s")
	put("harness.checkpoint_load_s", d.load.Seconds(), "s")
	put("corpus.score_s", d.score.Seconds(), "s")
	put("generate.emit_s", d.emit.Seconds(), "s")
	put("generate.emissions", float64(d.emissions), "count")
	put("triage.reduce_probes", float64(tr.probes.other), "count")
	put("triage.reduce_s", tr.probes.otherBusy.Seconds(), "s")
	put("triage.novel", float64(tr.triage.Novel), "count")
	put("triage.duplicates", float64(tr.triage.Duplicates), "count")
	var rawStmts, minStmts int
	for _, e := range tr.entries {
		if e.Min != "" {
			rawStmts += e.RawStmts
			minStmts += e.MinStmts
		}
	}
	put("reduce.shrink_ratio", ratio(float64(minStmts), float64(rawStmts)), "ratio")
	return m, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// replayWire re-runs every request the pool was sent, in this process:
// once through exec.Request.Run, whose total time is the pool's
// round-trip time less the wire, and once through the traced replica,
// which gives the layer times the children spent. The replica shares
// one compile cache across the replay, like a warm child; its outputs
// must equal what the pool returned.
func replayWire(rep *report, w *wireLog) (time.Duration, *layerTotals, jit.CacheStats, error) {
	var runTotal time.Duration
	for _, it := range w.items {
		start := time.Now()
		resp := it.req.Run()
		runTotal += time.Since(start)
		if resp.Error != "" {
			return 0, nil, jit.CacheStats{}, fmt.Errorf("wire replay: %s", resp.Error)
		}
	}
	replay := newReplica()
	cache := jit.NewCache(0)
	mismatches := 0
	for _, it := range w.items {
		p, spec, opt, err := decodeRequest(it.req, cache)
		if err != nil {
			return 0, nil, jit.CacheStats{}, fmt.Errorf("wire replay: %w", err)
		}
		res, err := replay.run(p, spec, opt)
		if err != nil {
			return 0, nil, jit.CacheStats{}, fmt.Errorf("wire replay: %w", err)
		}
		if res.Result.OutputString() != it.want {
			mismatches++
		}
	}
	if mismatches > 0 {
		rep.Problems = append(rep.Problems, fmt.Sprintf("traced replica disagrees with the pool on %d of %d requests", mismatches, len(w.items)))
	}
	return runTotal, replay.totals, cache.Stats(), nil
}

// decodeRequest turns a wire request back into the program, spec and
// options a serve-mode child runs it with.
func decodeRequest(r *exec.Request, cache *jit.Cache) (*lang.Program, jvm.Spec, jvm.Options, error) {
	spec, err := jvm.ParseSpec(r.Spec)
	if err != nil {
		return nil, spec, jvm.Options{}, err
	}
	p, err := lang.Parse(r.Source)
	if err != nil {
		return nil, spec, jvm.Options{}, err
	}
	o := r.Options
	opt := jvm.Options{
		Flags:           profile.FlagSetFromNames(o.Flags),
		ForceCompile:    o.ForceCompile,
		CompileOnly:     o.CompileOnly,
		MaxSteps:        o.MaxSteps,
		MaxHeapUnits:    o.MaxHeapUnits,
		PureInterpreter: o.PureInterpreter,
		StructuredOBV:   o.StructuredOBV,
		CompileCache:    cache,
		Plan:            o.Plan,
	}
	if o.BugsOverride {
		opt.Bugs = []*buginject.Bug{}
		for _, id := range o.BugIDs {
			bug := buginject.ByID(id)
			if bug == nil {
				return nil, spec, opt, fmt.Errorf("unknown bug %q", id)
			}
			opt.Bugs = append(opt.Bugs, bug)
		}
	}
	if o.Coverage {
		opt.Coverage = coverage.NewTracker()
	}
	return p, spec, opt, nil
}

// durableLayers holds what the durable workload's traced run measures
// by calling layer functions directly after the campaign.
type durableLayers struct {
	save, load time.Duration
	score      time.Duration
	emit       time.Duration
	emissions  int
}

func (b *bench) durable(ctx context.Context, rep *report, tr *instance) (durableLayers, error) {
	var d durableLayers
	path := filepath.Join(b.workDir, fmt.Sprintf("checkpoint-%d.json", os.Getpid()))
	defer os.Remove(path)
	if err := os.WriteFile(path, tr.checkpoint, 0o644); err != nil {
		return d, err
	}
	var ck *harness.Checkpoint
	var loads, saves []float64
	for i := 0; i < checkpointRepeats; i++ {
		start := time.Now()
		var err error
		if ck, err = harness.LoadCheckpoint(path); err != nil {
			return d, err
		}
		loads = append(loads, time.Since(start).Seconds())
		start = time.Now()
		if err := ck.Save(path); err != nil {
			return d, err
		}
		saves = append(saves, time.Since(start).Seconds())
	}
	d.load = time.Duration(median(loads) * float64(time.Second))
	d.save = time.Duration(median(saves) * float64(time.Second))

	seeds := seedPool()
	start := time.Now()
	if _, err := core.ScoreSeeds(ctx, seeds, nil, ""); err != nil {
		return d, err
	}
	d.score = time.Since(start)

	// Regenerate every emission the campaign made, from the counts the
	// checkpoint records; the pool slots it records must be among them.
	var st struct {
		Generate *generate.State `json:"generate"`
	}
	if err := json.Unmarshal(ck.State, &st); err != nil || st.Generate == nil {
		return d, fmt.Errorf("checkpoint carries no generator state (%v)", err)
	}
	gens, err := generate.Build(generate.Config{
		Generators:      generators,
		TemplateSources: seeds,
		TemplateExtras:  st.Generate.Extras,
		StmtFillers:     mutatorFillers(),
	})
	if err != nil {
		return d, err
	}
	emitted := map[string]string{}
	for _, g := range gens {
		n := st.Generate.Emitted[g.ID()]
		start := time.Now()
		out := g.Generate(corpusSeed, 0, n)
		d.emit += time.Since(start)
		d.emissions += len(out)
		for _, s := range out {
			emitted[s.Name] = s.Source
		}
	}
	for _, sl := range st.Generate.Slots {
		if emitted[sl.Name] != sl.Source {
			rep.Problems = append(rep.Problems, fmt.Sprintf("generator replay does not reproduce checkpointed pool slot %d (%s)", sl.Index, sl.Name))
		}
	}
	return d, nil
}
