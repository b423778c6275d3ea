package jit

import (
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/profile"
	"repro/internal/vm"
)

// TestCompiledFrameAllocBudget pins that compiled code keeps its locals
// in pooled frames: once warm, invoking a method with locals, a loop,
// and nested scopes allocates nothing at all.
func TestCompiledFrameAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is noisy under -short test shuffling")
	}
	m, p := buildMachine(t, `
class T {
  static void main() { return; }
  int work(int n) {
    int acc = 0;
    for (int k = 0; k < n; k += 1) {
      int t = k * 2;
      if (t > 4) { int u = t - 4; acc = acc + u; }
      acc = acc + t;
    }
    return acc;
  }
}`)
	c := compileByHand(t, m, p, "T.work")
	args := []vm.Value{m.NewObject("T"), vm.IntVal(10)}
	var got vm.Value
	allocs := testing.AllocsPerRun(50, func() {
		got, _ = c.Invoke(args)
	})
	if got.I != 146 {
		t.Fatalf("work(10) = %d, want 146", got.I)
	}
	if allocs != 0 {
		t.Errorf("Invoke allocated %.1f times per call, want 0 (per-invocation scope storage is back)", allocs)
	}
}

// TestCompiledRecursionFrames checks that a recursive compiled method
// gets a frame per activation: the callee must not clobber the caller's
// locals.
func TestCompiledRecursionFrames(t *testing.T) {
	opt, ctxs := assertAgree(t, `
class T {
  static void main() {
    for (int i = 0; i < 12; i += 1) { print(T.fib(i)); }
  }
  static int fib(int n) {
    int r = n;
    if (n > 1) {
      int a = T.fib(n - 1);
      int b = T.fib(n - 2);
      r = a + b;
    }
    return r;
  }
}`)
	if len(ctxs) == 0 || opt.Tiers["T.fib"] != vm.TierC2 {
		t.Fatalf("fib never reached compiled code (tiers %v)", opt.Tiers)
	}
	if got := opt.Output[11]; got != "89" {
		t.Errorf("fib(11) = %s, want 89", got)
	}
}

// cmpLt builds `l < r`.
func cmpLt(l, r *Node) *Node {
	return &Node{Kind: NBinary, BinOp: lang.OpLt, Ty: lang.Bool, Kids: []*Node{l, r}}
}

func add(l, r *Node) *Node {
	return &Node{Kind: NBinary, BinOp: lang.OpAdd, Ty: lang.Int, Kids: []*Node{l, r}}
}

// TestCompiledUnboundOnUntakenBranch: a declaration in an if branch
// with no scope of its own binds in the enclosing scope only when the
// branch runs; otherwise the later read is the "unbound variable" error,
// as it was under the dynamic scope stack.
func TestCompiledUnboundOnUntakenBranch(t *testing.T) {
	m, _ := buildMachine(t, `class T { static void main() { return; } }`)
	p := Var("p", lang.Int)
	c := handCompiled(&Func{Class: "T", Name: "synth", Ret: lang.Int,
		Params: []lang.Param{{Name: "p", Ty: lang.Int}},
		Body: Seq(
			&Node{Kind: NIf, Kids: []*Node{cmpLt(ConstInt(0), p),
				{Kind: NDecl, Name: "x", Ty: lang.Int, Kids: []*Node{ConstInt(5)}}}},
			&Node{Kind: NReturn, Kids: []*Node{Var("x", lang.Int)}},
		),
	}, m, profile.NewRecorder(profile.NoFlags()))
	if v, err := c.Invoke([]vm.Value{vm.IntVal(1)}); err != nil || v.I != 5 {
		t.Fatalf("taken branch: %v %v, want 5", v, err)
	}
	_, err := c.Invoke([]vm.Value{vm.IntVal(0)})
	if err == nil || !strings.Contains(err.Error(), `unbound variable "x"`) {
		t.Fatalf("untaken branch: err = %v, want unbound variable", err)
	}
	// The binding of one invocation must not leak into the next.
	if v, err := c.Invoke([]vm.Value{vm.IntVal(1)}); err != nil || v.I != 5 {
		t.Fatalf("taken branch again: %v %v", v, err)
	}
	if _, err := c.Invoke([]vm.Value{vm.IntVal(0)}); err == nil {
		t.Fatal("binding leaked from the previous invocation")
	}
}

// TestCompiledRedeclaredInLoopBody covers a loop body that redeclares
// the loop variable, with and without a scope of its own. Expected
// values follow the dynamic scope stack: a scoped body shadows the loop
// variable afresh each iteration; an unscoped body's binding lives in
// the loop's scope across iterations; the increment always advances the
// loop variable itself.
func TestCompiledRedeclaredInLoopBody(t *testing.T) {
	m, _ := buildMachine(t, `class T { static void main() { return; } }`)
	acc := func() *Node { return Var("acc", lang.Int) }
	k := func() *Node { return Var("k", lang.Int) }
	run := func(body *Node) int64 {
		t.Helper()
		c := handCompiled(&Func{Class: "T", Name: "synth", Ret: lang.Int,
			Body: Seq(
				&Node{Kind: NDecl, Name: "acc", Ty: lang.Int, Kids: []*Node{ConstInt(0)}},
				&Node{Kind: NFor, Name: "k", Step: 1, Kids: []*Node{ConstInt(0), ConstInt(3), body}},
				&Node{Kind: NReturn, Kids: []*Node{acc()}},
			),
		}, m, profile.NewRecorder(profile.NoFlags()))
		v, err := c.Invoke(nil)
		if err != nil {
			t.Fatal(err)
		}
		return v.I
	}

	// for k in 0..3 { int k = k * 10; acc = acc + k; } → 0 + 10 + 20.
	scoped := Seq(
		&Node{Kind: NDecl, Name: "k", Ty: lang.Int, Kids: []*Node{
			{Kind: NBinary, BinOp: lang.OpMul, Ty: lang.Int, Kids: []*Node{k(), ConstInt(10)}}}},
		&Node{Kind: NAssignVar, Name: "acc", Kids: []*Node{add(acc(), k())}},
	)
	if got := run(scoped); got != 30 {
		t.Errorf("scoped redeclaration: acc = %d, want 30", got)
	}

	// for k in 0..3: if (k < 100) int k = k + 100; else acc = acc + k;
	// Iteration 0 binds the shadowing k = 100 in the loop's scope; it
	// survives, so iterations 1 and 2 add 100 each.
	unscoped := &Node{Kind: NIf, Kids: []*Node{cmpLt(k(), ConstInt(100)),
		{Kind: NDecl, Name: "k", Ty: lang.Int, Kids: []*Node{add(k(), ConstInt(100))}},
		{Kind: NAssignVar, Name: "acc", Kids: []*Node{add(acc(), k())}},
	}}
	if got := run(unscoped); got != 200 {
		t.Errorf("unscoped redeclaration: acc = %d, want 200", got)
	}
}

// TestCompiledFieldSiteOtherClass: a field site resolved against class
// A that meets a B receiver (a shape only miscompiled code produces)
// reads and writes B's field by name, not A's slot.
func TestCompiledFieldSiteOtherClass(t *testing.T) {
	m, _ := buildMachine(t, `
class A {
  int pad;
  int x;
  static void main() { return; }
}
class B {
  int x;
}`)
	o := Var("o", lang.ObjectType("A"))
	c := handCompiled(&Func{Class: "A", Name: "synth", Ret: lang.Int,
		Params: []lang.Param{{Name: "o", Ty: lang.ObjectType("A")}},
		Body: Seq(
			&Node{Kind: NAssignField, Class: "A", Name: "x", Kids: []*Node{o, add(
				&Node{Kind: NFieldGet, Class: "A", Name: "x", Ty: lang.Int, Kids: []*Node{Var("o", lang.ObjectType("A"))}},
				ConstInt(1))}},
			&Node{Kind: NReturn, Kids: []*Node{{Kind: NFieldGet, Class: "A", Name: "x", Ty: lang.Int,
				Kids: []*Node{Var("o", lang.ObjectType("A"))}}}},
		),
	}, m, profile.NewRecorder(profile.NoFlags()))
	b := m.NewObject("B")
	b.Obj.SetField(-1, -1, "x", vm.IntVal(41))
	if v, err := c.Invoke([]vm.Value{b}); err != nil || v.I != 42 {
		t.Fatalf("B receiver through A's sites: %v %v, want 42", v, err)
	}
	if len(b.Obj.Fields) != 1 || b.Obj.Fields[0] != vm.IntVal(42) {
		t.Errorf("B's slots = %v, want [42]", b.Obj.Fields)
	}
	a := m.NewObject("A")
	if v, err := c.Invoke([]vm.Value{a}); err != nil || v.I != 1 || a.Obj.Fields[0] != vm.IntVal(0) {
		t.Errorf("A receiver: %v %v, slots %v", v, err, a.Obj.Fields)
	}
}

// TestInvokeRefusesUnresolvedFunc: a Func that skipped resolve cannot
// run (its slots would all be zero).
func TestInvokeRefusesUnresolvedFunc(t *testing.T) {
	m, p := buildMachine(t, `class T { static void main() { return; } int work(int i) { return i; } }`)
	f, err := LowerProgramFunc(p, "T.work")
	if err != nil {
		t.Fatal(err)
	}
	c := &Compiled{F: f, Env: m, Cov: &covSink{}}
	if _, err := c.Invoke([]vm.Value{m.NewObject("T"), vm.IntVal(1)}); err == nil || !strings.Contains(err.Error(), "not resolved") {
		t.Fatalf("err = %v, want not resolved", err)
	}
}
