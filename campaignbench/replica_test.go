package main

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/exec"
	"repro/internal/jit"
	"repro/internal/jvm"
	"repro/internal/lang"
	"repro/internal/profile"
)

// fakeClock advances by one nanosecond per reading.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { c.t = c.t.Add(time.Nanosecond); return c.t }

// Self time is a span's duration less its children's, at every depth:
// run [0,100] holds invoke [10,60], which calls back into the machine
// [20,40], which runs another compiled method [25,35].
func TestSelfTimeNestedInvoke(t *testing.T) {
	var clock int64
	st := &selfTimer{now: func() time.Time { return time.Unix(0, clock) }}
	step := func(at int64, f func()) { clock = at; f() }
	step(0, func() { st.begin(spanRun) })
	step(10, func() { st.begin(spanInvoke) })
	step(20, func() { st.begin(spanCallback) })
	step(25, func() { st.begin(spanInvoke) })
	step(35, st.end)
	step(40, st.end)
	step(60, st.end)
	step(100, st.end)

	want := map[spanKind]time.Duration{spanRun: 50, spanInvoke: 40, spanCallback: 10}
	for k, w := range want {
		if st.self[k] != w {
			t.Errorf("self[%d] = %v, want %v", k, st.self[k], w)
		}
	}
	if len(st.stack) != 0 {
		t.Errorf("%d spans left open", len(st.stack))
	}
}

// callsProgram is a program whose compiled method calls back into an
// interpreted one: only T.outer is compiled, and T.inner recurses, so
// outer's call to it survives inlining.
const callsProgram = `class T {
	static void main() { print(T.outer(3) + T.outer(4)); }
	static int outer(int x) { return T.inner(x) + 1; }
	static int inner(int x) { if (x <= 0) { return 0; } return T.inner(x - 1) + 2; }
}`

func TestReplicaChargesCallbacksIntoTheInterpreter(t *testing.T) {
	p, err := lang.Parse(callsProgram)
	if err != nil {
		t.Fatal(err)
	}
	clock := &fakeClock{}
	r := &replica{totals: &layerTotals{}, now: clock.now}
	spec, err := jvm.ParseSpec("openjdk-17")
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.run(p, spec, jvm.Options{ForceCompile: true, CompileOnly: "T.outer"})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Result.OutputString(); got != "16\n" {
		t.Fatalf("output %q, want 16", got)
	}
	tot := r.totals
	if tot.self[spanInvoke] <= 0 || tot.self[spanCallback] <= 0 || tot.self[spanRun] <= 0 {
		t.Errorf("self times run=%v invoke=%v callback=%v: want all three charged",
			tot.self[spanRun], tot.self[spanInvoke], tot.self[spanCallback])
	}
	if tot.compiles[0] == 0 || tot.compiles[1] == 0 {
		t.Errorf("compiles = %v, want C1 and C2", tot.compiles)
	}
}

// The recorder and the replica must be pass-through: the same results as
// the in-process backend on all three call kinds.
func TestDecoratorsArePassThrough(t *testing.T) {
	ctx := context.Background()
	seeds := corpus.DefaultPool(3, 7)
	specs := []jvm.Spec{}
	for _, n := range []string{"openjdk-17", "openj9-17", "openjdk-8"} {
		s, err := jvm.ParseSpec(n)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	plans := []*jit.Plan{nil, jit.GeneratePlan(11, jit.PlanFull), jit.GeneratePlan(12, jit.PlanMinimal)}
	opt := jvm.Options{Flags: profile.DefaultFlags(), ForceCompile: true, MaxSteps: 3_000_000, StructuredOBV: true}
	executors := map[string]func() exec.Executor{
		"recorder": func() exec.Executor { return newRecorder(nil) },
		"replica":  func() exec.Executor { return newReplica() },
		"recorder(replica)": func() exec.Executor {
			r := newRecorder(newReplica())
			r.sample = newSampler(1, 1)
			r.wire = &wireLog{}
			return r
		},
	}
	for name, mk := range executors {
		for _, s := range seeds {
			p := s.Parse()
			for _, cached := range []bool{false, true} {
				o := opt
				if cached {
					o.CompileCache = jit.NewCache(0)
				}
				ex := mk()
				var in exec.InProcess
				want, err := in.Execute(ctx, lang.CloneProgram(p), specs[0], o)
				if err != nil {
					t.Fatal(err)
				}
				got, err := ex.Execute(ctx, lang.CloneProgram(p), specs[0], o)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("%s Execute(%s): results differ (err %v)", name, s.Name, err)
				}
				wantD, err := in.ExecuteDifferential(ctx, lang.CloneProgram(p), specs, o)
				if err != nil {
					t.Fatal(err)
				}
				gotD, err := ex.ExecuteDifferential(ctx, lang.CloneProgram(p), specs, o)
				if err != nil || !reflect.DeepEqual(gotD, wantD) {
					t.Errorf("%s ExecuteDifferential(%s): results differ (err %v)", name, s.Name, err)
				}
				wantP, err := in.ExecutePlanDifferential(ctx, lang.CloneProgram(p), specs[1], plans, o)
				if err != nil {
					t.Fatal(err)
				}
				gotP, err := ex.ExecutePlanDifferential(ctx, lang.CloneProgram(p), specs[1], plans, o)
				if err != nil || !reflect.DeepEqual(gotP, wantP) {
					t.Errorf("%s ExecutePlanDifferential(%s): results differ (err %v)", name, s.Name, err)
				}
			}
		}
	}
}
