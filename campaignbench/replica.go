package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"sync"
	"time"

	"repro/internal/buginject"
	"repro/internal/bytecode"
	"repro/internal/coverage"
	"repro/internal/jit"
	"repro/internal/jvm"
	"repro/internal/lang"
	"repro/internal/profile"
	"repro/internal/vm"
)

// spanKind names the layer boundaries the traced replica records inside
// one execution.
type spanKind int

const (
	spanRun       spanKind = iota // vm.Machine.Run: the interpreter's own work
	spanCallback                  // compiled code calling back into the machine (vm.Env.Call)
	spanInvoke                    // vm.CompiledMethod.Invoke: compiled-code execution
	spanCompileC1                 // vm.Compiler.Compile at C1
	spanCompileC2                 // vm.Compiler.Compile at C2
	nSpans
)

// selfTimer keeps the open spans of one execution as a stack and
// charges each closed span its self time: its duration minus the part
// its child spans cover. One execution runs on one goroutine, so a
// selfTimer needs no locking.
type selfTimer struct {
	now   func() time.Time
	stack []openSpan
	self  [nSpans]time.Duration
	// compiles counts Compile calls per tier (index 0 = C1, 1 = C2).
	compiles [2]int
}

type openSpan struct {
	kind  spanKind
	start time.Time
	child time.Duration
}

func (t *selfTimer) begin(k spanKind) {
	t.stack = append(t.stack, openSpan{kind: k, start: t.now()})
}

func (t *selfTimer) end() {
	n := len(t.stack) - 1
	s := t.stack[n]
	t.stack = t.stack[:n]
	d := t.now().Sub(s.start)
	t.self[s.kind] += d - s.child
	if n > 0 {
		t.stack[n-1].child += d
	}
}

// tracedCompiler wraps the JIT handed to the machine. Compilation time
// is charged per tier, the returned code is wrapped so its execution is
// timed, and the compiler sees a wrapped Env so compiled code calling
// back into the machine opens a callback span.
type tracedCompiler struct {
	inner vm.Compiler
	t     *selfTimer
}

func (c *tracedCompiler) Compile(fn *bytecode.Function, tier vm.Tier, env vm.Env) (vm.CompiledMethod, error) {
	k, slot := spanCompileC2, 1
	if tier == vm.TierC1 {
		k, slot = spanCompileC1, 0
	}
	c.t.compiles[slot]++
	c.t.begin(k)
	cm, err := c.inner.Compile(fn, tier, tracedEnv{Env: env, t: c.t})
	c.t.end()
	if err != nil {
		return nil, err
	}
	return tracedMethod{inner: cm, t: c.t}, nil
}

type tracedMethod struct {
	inner vm.CompiledMethod
	t     *selfTimer
}

func (m tracedMethod) Invoke(args []vm.Value) (vm.Value, error) {
	m.t.begin(spanInvoke)
	v, err := m.inner.Invoke(args)
	m.t.end()
	return v, err
}

// tracedEnv forwards every runtime service to the machine and times
// only Call, the one through which compiled code re-enters the
// interpreter (or other compiled code, or the JIT).
type tracedEnv struct {
	vm.Env
	t *selfTimer
}

func (e tracedEnv) Call(ref bytecode.MethodRef, recv vm.Value, args []vm.Value) (vm.Value, error) {
	e.t.begin(spanCallback)
	v, err := e.Env.Call(ref, recv, args)
	e.t.end()
	return v, err
}

// layerTotals accumulates what the traced replica measured across all
// executions. Safe for concurrent use.
type layerTotals struct {
	mu sync.Mutex

	check    time.Duration // lang.Check
	compile  time.Duration // bytecode.Compile
	verify   time.Duration // bytecode.Verify
	obv      time.Duration // OBV extraction from the profile recorder
	self     [nSpans]time.Duration
	compiles [2]int
}

func (l *layerTotals) add(st *selfTimer, check, compile, verify, obv time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.check += check
	l.compile += compile
	l.verify += verify
	l.obv += obv
	for i := range l.self {
		l.self[i] += st.self[i]
	}
	l.compiles[0] += st.compiles[0]
	l.compiles[1] += st.compiles[1]
}

// replica is an exec.Executor that performs exactly the public calls
// jvm.Run makes — lang.Check, bytecode.Compile/Verify, jit.New, and
// vm.NewMachine(...).Run — with timers around each one. Its results
// must be identical to the in-process backend's; the traced run checks
// that by comparing campaign digests.
type replica struct {
	totals *layerTotals
	now    func() time.Time
}

func newReplica() *replica { return &replica{totals: &layerTotals{}, now: time.Now} }

// run mirrors jvm.Run step for step.
func (r *replica) run(p *lang.Program, spec jvm.Spec, opt jvm.Options) (*jvm.ExecResult, error) {
	st := &selfTimer{now: r.now}
	var check, compile, verify, obv time.Duration
	defer func() { r.totals.add(st, check, compile, verify, obv) }()

	t0 := r.now()
	err := lang.Check(p)
	check = r.now().Sub(t0)
	if err != nil {
		return nil, fmt.Errorf("jvm: program rejected: %w", err)
	}
	if opt.Plan != nil {
		if err := opt.Plan.Validate(); err != nil {
			return nil, fmt.Errorf("jvm: plan rejected: %w", err)
		}
	}
	t0 = r.now()
	img, err := bytecode.Compile(p)
	compile = r.now().Sub(t0)
	if err != nil {
		return nil, fmt.Errorf("jvm: compile: %w", err)
	}
	t0 = r.now()
	err = bytecode.Verify(img)
	verify = r.now().Sub(t0)
	if err != nil {
		return nil, fmt.Errorf("jvm: verify: %w", err)
	}

	rec := profile.NewRecorder(opt.Flags)
	if opt.StructuredOBV {
		rec = profile.NewCounterRecorder(opt.Flags)
	}
	cov := opt.Coverage
	if cov == nil {
		cov = coverage.NewTracker()
	}
	cfg := vm.Config{MaxSteps: opt.MaxSteps, MaxHeapUnits: opt.MaxHeapUnits, Trace: cov.Hit, CompileOnly: opt.CompileOnly}
	if opt.ForceCompile {
		cfg.CompileEager = true
	}
	var inj *buginject.Injector
	compiled := 0
	if !opt.PureInterpreter {
		if opt.Bugs != nil {
			inj = buginject.NewInjectorFor(opt.Bugs)
		} else {
			inj = buginject.NewInjector(spec.Impl, spec.Version)
		}
		var hook jit.Hook = inj
		if opt.CompileHook != nil {
			hook = jit.ChainHooks(inj, opt.CompileHook)
		}
		comp := jit.New(rec, cov, hook)
		if spec.Impl == buginject.OpenJ9 {
			comp.Opt.InlineBudgetC2 = 96
			comp.Opt.TrapLimit = 3
		}
		comp.Plan = opt.Plan
		comp.OnCompiled = func(*jit.Context) { compiled++ }
		if opt.CompileCache != nil && opt.CompileHook == nil {
			comp.Cache = opt.CompileCache
			comp.CacheSalt = programFingerprint(p)
		}
		cfg.JIT = &tracedCompiler{inner: comp, t: st}
	}

	m := vm.NewMachine(img, cfg)
	st.begin(spanRun)
	vmRes := m.Run()
	st.end()
	out := &jvm.ExecResult{Spec: spec, Result: vmRes, Compiled: compiled}
	t0 = r.now()
	if opt.StructuredOBV {
		out.OBV = rec.OBV()
	} else if rec.Len() > 0 {
		out.Log = rec.Text()
		out.OBV = profile.ExtractOBV(out.Log)
	}
	obv = r.now().Sub(t0)
	if inj != nil {
		out.Triggered = inj.Triggered
	}
	return out, nil
}

// programFingerprint is the compile-cache salt jvm.Run derives: an FNV
// hash of the program's canonical rendering.
func programFingerprint(p *lang.Program) string {
	h := fnv.New64a()
	io.WriteString(h, lang.Format(p))
	return strconv.FormatUint(h.Sum64(), 16)
}

// Execute implements exec.Executor.
func (r *replica) Execute(_ context.Context, p *lang.Program, spec jvm.Spec, opt jvm.Options) (*jvm.ExecResult, error) {
	return r.run(p, spec, opt)
}

// ExecuteDifferential implements exec.Executor, mirroring
// jvm.RunDifferential.
func (r *replica) ExecuteDifferential(_ context.Context, p *lang.Program, specs []jvm.Spec, opt jvm.Options) (*jvm.Differential, error) {
	d := &jvm.Differential{Groups: map[string][]jvm.Spec{}}
	for _, spec := range specs {
		res, err := r.run(lang.CloneProgram(p), spec, opt)
		if err != nil {
			return nil, err
		}
		d.Results = append(d.Results, res)
		key := res.Result.OutputString()
		d.Groups[key] = append(d.Groups[key], spec)
	}
	return d, nil
}

// ExecutePlanDifferential implements exec.Executor, mirroring
// jvm.RunPlanDifferential.
func (r *replica) ExecutePlanDifferential(_ context.Context, p *lang.Program, spec jvm.Spec, plans []*jit.Plan, opt jvm.Options) (*jvm.Differential, error) {
	d := &jvm.Differential{Groups: map[string][]jvm.Spec{}}
	for _, plan := range plans {
		o := opt
		o.Plan = plan
		res, err := r.run(lang.CloneProgram(p), spec, o)
		if err != nil {
			return nil, err
		}
		res.PlanID = jit.PlanID(plan)
		d.Results = append(d.Results, res)
		key := res.Result.OutputString()
		d.Groups[key] = append(d.Groups[key], spec)
	}
	return d, nil
}
