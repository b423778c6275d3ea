package main

import (
	"context"
	"errors"
	"hash/fnv"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/harness"
	"repro/internal/jit"
	"repro/internal/jvm"
	"repro/internal/lang"
)

// callKind indexes the three exec.Executor entry points.
type callKind int

const (
	kindExec callKind = iota
	kindDiff
	kindPlanDiff
	nKinds
)

var kindNames = [nKinds]string{"exec", "diff", "plandiff"}

// errSetupProbe is returned instead of running the first budgeted call
// of a set-up probe: the probe only measures the time to reach it.
var errSetupProbe = errors.New("campaignbench: set-up probe reached its first budgeted execution")

// recorder is an exec.Executor decorator that times every call into the
// execution layer from outside it. Results and errors pass through
// unchanged. A call counts as budgeted when its options carry the
// campaign's compile cache: the fuzzer always attaches it, the power
// schedule's seed-scoring dry-runs never do.
type recorder struct {
	inner exec.Executor

	// onFirstBudgeted, when set, is called at the first budgeted call,
	// which then fails with errSetupProbe instead of executing.
	onFirstBudgeted func()
	// sample, when set, receives the budgeted single executions for the
	// substrate-soundness check.
	sample *sampler
	// wire, when set, logs every successful call as the exec requests a
	// child process is sent for it, with the outputs the call returned.
	wire *wireLog

	mu          sync.Mutex
	c           counters
	inFlight    int // budgeted calls in flight
	flightStart time.Time
}

// counters is what a recorder has measured.
type counters struct {
	first       time.Time // start of the first budgeted call
	calls       [nKinds]int
	busy        [nKinds]time.Duration
	durs        []time.Duration
	runs        int // target runs inside budgeted differential calls
	other       int // calls that are not budgeted (scoring dry-runs, reduction probes)
	otherBusy   time.Duration
	backendErrs int           // calls that returned a backend fault
	inCalls     time.Duration // wall time with at least one budgeted call in flight
	steps       int64
	allocs      int64
	timeouts    int
}

func newRecorder(inner exec.Executor) *recorder {
	return &recorder{inner: exec.Or(inner)}
}

// call is one open call: its start and whether it is budgeted.
type call struct {
	start    time.Time
	budgeted bool
}

// begin opens a call; it reports false when the call must be refused
// (a set-up probe reaching its first budgeted execution).
func (r *recorder) begin(opt jvm.Options) (call, bool) {
	c := call{start: time.Now(), budgeted: opt.CompileCache != nil}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !c.budgeted {
		return c, true
	}
	if r.c.first.IsZero() {
		r.c.first = c.start
		if r.onFirstBudgeted != nil {
			r.onFirstBudgeted()
			return c, false
		}
	}
	if r.inFlight == 0 {
		r.flightStart = c.start
	}
	r.inFlight++
	return c, true
}

func (r *recorder) finish(k callKind, c call, err error, results ...*jvm.ExecResult) {
	end := time.Now()
	d := end.Sub(c.start)
	r.mu.Lock()
	defer r.mu.Unlock()
	n := &r.c
	if err != nil && harness.AsFault(err) != nil {
		n.backendErrs++
	}
	if !c.budgeted {
		n.other++
		n.otherBusy += d
		return
	}
	r.inFlight--
	if r.inFlight == 0 {
		n.inCalls += end.Sub(r.flightStart)
	}
	n.calls[k]++
	n.busy[k] += d
	n.durs = append(n.durs, d)
	if k != kindExec {
		n.runs += len(results)
	}
	for _, res := range results {
		n.steps += res.Result.Steps
		n.allocs += int64(res.Result.AllocCount)
		if res.Result.TimedOut {
			n.timeouts++
		}
	}
}

// Execute implements exec.Executor.
func (r *recorder) Execute(ctx context.Context, p *lang.Program, spec jvm.Spec, opt jvm.Options) (*jvm.ExecResult, error) {
	if r.sample != nil && opt.CompileCache != nil {
		r.sample.offer(p, spec, opt)
	}
	reqs := r.wire.requests(p, []jvm.Spec{spec}, nil, opt)
	c, ok := r.begin(opt)
	if !ok {
		return nil, errSetupProbe
	}
	res, err := r.inner.Execute(ctx, p, spec, opt)
	if err != nil {
		r.finish(kindExec, c, err)
		return nil, err
	}
	r.finish(kindExec, c, nil, res)
	r.wire.add(reqs, res)
	return res, nil
}

// ExecuteDifferential implements exec.Executor.
func (r *recorder) ExecuteDifferential(ctx context.Context, p *lang.Program, specs []jvm.Spec, opt jvm.Options) (*jvm.Differential, error) {
	reqs := r.wire.requests(p, specs, nil, opt)
	c, ok := r.begin(opt)
	if !ok {
		return nil, errSetupProbe
	}
	d, err := r.inner.ExecuteDifferential(ctx, p, specs, opt)
	return d, r.finishDiff(kindDiff, c, reqs, d, err)
}

// ExecutePlanDifferential implements exec.Executor.
func (r *recorder) ExecutePlanDifferential(ctx context.Context, p *lang.Program, spec jvm.Spec, plans []*jit.Plan, opt jvm.Options) (*jvm.Differential, error) {
	reqs := r.wire.requests(p, []jvm.Spec{spec}, plans, opt)
	c, ok := r.begin(opt)
	if !ok {
		return nil, errSetupProbe
	}
	d, err := r.inner.ExecutePlanDifferential(ctx, p, spec, plans, opt)
	return d, r.finishDiff(kindPlanDiff, c, reqs, d, err)
}

func (r *recorder) finishDiff(k callKind, c call, reqs []*exec.Request, d *jvm.Differential, err error) error {
	if err != nil {
		r.finish(k, c, err)
		return err
	}
	r.finish(k, c, nil, d.Results...)
	r.wire.add(reqs, d.Results...)
	return nil
}

// snapshot copies the counters; call it once the campaign has returned.
func (r *recorder) snapshot() counters {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.c
	c.durs = append([]time.Duration(nil), r.c.durs...)
	return c
}

// budgetedCalls counts the budgeted calls of every kind.
func (c counters) budgetedCalls() int {
	return c.calls[kindExec] + c.calls[kindDiff] + c.calls[kindPlanDiff]
}

// sampleItem is one program kept for the substrate-soundness check,
// with the execution settings it ran under.
type sampleItem struct {
	key      uint64
	source   string
	spec     jvm.Spec
	plan     *jit.Plan
	maxSteps int64
	maxHeap  int64
}

// sampler keeps the executions whose content hash, salted with the
// workload seed, falls in one residue class: the choice depends only on
// the program, spec and plan, never on call order or timing.
type sampler struct {
	salt  uint64
	every uint64

	mu    sync.Mutex
	items map[uint64]sampleItem
}

func newSampler(seed int64, every uint64) *sampler {
	return &sampler{salt: uint64(seed), every: every, items: map[uint64]sampleItem{}}
}

func (s *sampler) offer(p *lang.Program, spec jvm.Spec, opt jvm.Options) {
	src := lang.Format(p)
	h := fnv.New64a()
	var salt [8]byte
	for i := range salt {
		salt[i] = byte(s.salt >> (8 * i))
	}
	h.Write(salt[:])
	io.WriteString(h, spec.Name())
	io.WriteString(h, jit.PlanID(opt.Plan))
	io.WriteString(h, src)
	key := h.Sum64()
	if key%s.every != 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.items[key]; !ok {
		s.items[key] = sampleItem{key: key, source: src, spec: spec, plan: opt.Plan, maxSteps: opt.MaxSteps, maxHeap: opt.MaxHeapUnits}
	}
}

// sorted returns the sampled items in key order.
func (s *sampler) sorted() []sampleItem {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]sampleItem, 0, len(s.items))
	for _, it := range s.items {
		out = append(out, it)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// wireItem is one exec request as the pool backend sends it to a child,
// with the output the call returned for it.
type wireItem struct {
	req  *exec.Request
	want string
}

// wireLog collects the requests of a pool-backed campaign so they can be
// replayed in-process afterwards. A nil *wireLog logs nothing.
type wireLog struct {
	mu    sync.Mutex
	items []wireItem
}

// requests builds the wire requests for one call the way the pool
// backend does: one per spec, or, when plans is non-nil, one per plan on
// specs[0].
func (w *wireLog) requests(p *lang.Program, specs []jvm.Spec, plans []*jit.Plan, opt jvm.Options) []*exec.Request {
	if w == nil {
		return nil
	}
	var reqs []*exec.Request
	build := func(spec jvm.Spec, o jvm.Options) bool {
		req, err := exec.NewRequest(p, spec, o)
		if err != nil {
			return false // the backend rejects the call the same way
		}
		reqs = append(reqs, req)
		return true
	}
	if plans == nil {
		for _, spec := range specs {
			if !build(spec, opt) {
				return nil
			}
		}
		return reqs
	}
	for _, plan := range plans {
		o := opt
		o.Plan = plan
		if !build(specs[0], o) {
			return nil
		}
	}
	return reqs
}

func (w *wireLog) add(reqs []*exec.Request, results ...*jvm.ExecResult) {
	if w == nil || len(reqs) != len(results) {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, req := range reqs {
		w.items = append(w.items, wireItem{req: req, want: results[i].Result.OutputString()})
	}
}
