package jit

import (
	"fmt"

	"repro/internal/bytecode"
	"repro/internal/lang"
	"repro/internal/profile"
	"repro/internal/vm"
)

// Compiled is the executable form of an optimized method: the optimized
// tree IR plus the runtime services captured at compile time. Executing
// it is running "compiled code"; any divergence from the bytecode
// interpreter on the same program is a miscompilation.
type Compiled struct {
	F   *Func
	Env vm.Env
	Log profile.Emitter
	Cov *covSink

	trapCount int
	trapLimit int
	frames    []*frame // freelist of invocation frames
}

// covSink is a tiny indirection so the executor can mark runtime
// coverage regions without a hard dependency on the tracker.
type covSink struct{ hit func(string) }

func (c *covSink) Hit(name string) {
	if c != nil && c.hit != nil {
		c.hit(name)
	}
}

// frame is one invocation's locals, laid out by resolve: a value per
// slot, and whether the slot is bound in the current instance of its
// scope.
type frame struct {
	vals  []vm.Value
	bound []bool
}

func (fr *frame) bind(slot int32, v vm.Value) {
	fr.vals[slot] = v
	fr.bound[slot] = true
}

// enter starts a fresh instance of the scope owning [lo, hi).
func (fr *frame) enter(lo, hi int32) { clear(fr.bound[lo:hi]) }

type ctrl int

const (
	ctrlNext ctrl = iota
	ctrlReturn
)

// Invoke implements vm.CompiledMethod. Frames come from a per-Compiled
// freelist: invocations nest LIFO (recursion takes a second frame), so
// steady-state calls allocate no local storage.
func (c *Compiled) Invoke(args []vm.Value) (vm.Value, error) {
	if !c.F.resolved {
		return vm.Value{}, fmt.Errorf("jit: exec: %s was not resolved", c.F.Key())
	}
	var fr *frame
	if k := len(c.frames); k > 0 {
		fr = c.frames[k-1]
		c.frames = c.frames[:k-1]
		clear(fr.bound)
	} else {
		fr = &frame{vals: make([]vm.Value, c.F.FrameSize), bound: make([]bool, c.F.FrameSize)}
	}
	for i, slot := range c.F.ArgSlots {
		fr.bind(slot, args[i])
	}
	k, v, err := c.execStmt(fr, c.F.Body)
	c.frames = append(c.frames, fr)
	if err != nil {
		return vm.Value{}, err
	}
	if k == ctrlReturn {
		return v, nil
	}
	return vm.Value{}, nil
}

func (c *Compiled) execSeq(fr *frame, n *Node) (ctrl, vm.Value, error) {
	fr.enter(n.Slot, n.SlotEnd)
	for _, k := range n.Kids {
		kc, v, err := c.execStmt(fr, k)
		if err != nil || kc == ctrlReturn {
			return kc, v, err
		}
	}
	return ctrlNext, vm.Value{}, nil
}

func (c *Compiled) execStmt(fr *frame, n *Node) (ctrl, vm.Value, error) {
	if err := c.Env.Step(); err != nil {
		return ctrlNext, vm.Value{}, err
	}
	switch n.Kind {
	case NSeq:
		return c.execSeq(fr, n)
	case NNop:
		return ctrlNext, vm.Value{}, nil
	case NDecl:
		v, err := c.eval(fr, n.Kids[0])
		if err != nil {
			return ctrlNext, vm.Value{}, err
		}
		fr.bind(n.Slot, v)
		return ctrlNext, vm.Value{}, nil
	case NAssignVar:
		v, err := c.eval(fr, n.Kids[0])
		if err != nil {
			return ctrlNext, vm.Value{}, err
		}
		for _, slot := range n.Slots {
			if fr.bound[slot] {
				fr.vals[slot] = v
				return ctrlNext, vm.Value{}, nil
			}
		}
		// A variable materialized by an optimization (e.g. scalar
		// replacement) may not have an explicit declaration on every
		// path; bind it in the innermost scope.
		fr.bind(n.Slots[0], v)
		return ctrlNext, vm.Value{}, nil
	case NAssignField:
		if n.Static {
			v, err := c.eval(fr, n.Kids[0])
			if err != nil {
				return ctrlNext, vm.Value{}, err
			}
			c.Env.SetStatic(staticRef(n), v)
			return ctrlNext, vm.Value{}, nil
		}
		recv, err := c.eval(fr, n.Kids[0])
		if err != nil {
			return ctrlNext, vm.Value{}, err
		}
		v, err := c.eval(fr, n.Kids[1])
		if err != nil {
			return ctrlNext, vm.Value{}, err
		}
		if recv.Kind != vm.KObj || recv.Obj == nil {
			return ctrlNext, vm.Value{}, &vm.Thrown{Code: bytecode.ExcNullPointer}
		}
		recv.Obj.SetField(n.ClassID, n.Slot, n.Name, v)
		return ctrlNext, vm.Value{}, nil
	case NAssignIndex:
		arr, err := c.eval(fr, n.Kids[0])
		if err != nil {
			return ctrlNext, vm.Value{}, err
		}
		idx, err := c.eval(fr, n.Kids[1])
		if err != nil {
			return ctrlNext, vm.Value{}, err
		}
		v, err := c.eval(fr, n.Kids[2])
		if err != nil {
			return ctrlNext, vm.Value{}, err
		}
		if arr.Kind != vm.KArr || arr.Arr == nil {
			return ctrlNext, vm.Value{}, &vm.Thrown{Code: bytecode.ExcNullPointer}
		}
		if idx.I < 0 || idx.I >= int64(len(arr.Arr.Elems)) {
			return ctrlNext, vm.Value{}, &vm.Thrown{Code: bytecode.ExcArrayBounds}
		}
		arr.Arr.Elems[idx.I] = int64(int32(v.I))
		return ctrlNext, vm.Value{}, nil
	case NIf:
		cond, err := c.eval(fr, n.Kids[0])
		if err != nil {
			return ctrlNext, vm.Value{}, err
		}
		if cond.Bool() {
			return c.execStmt(fr, n.Kids[1])
		}
		if len(n.Kids) > 2 {
			return c.execStmt(fr, n.Kids[2])
		}
		return ctrlNext, vm.Value{}, nil
	case NFor:
		return c.execFor(fr, n)
	case NWhile:
		for {
			cond, err := c.eval(fr, n.Kids[0])
			if err != nil {
				return ctrlNext, vm.Value{}, err
			}
			if !cond.Bool() {
				return ctrlNext, vm.Value{}, nil
			}
			k, v, err := c.execStmt(fr, n.Kids[1])
			if err != nil || k == ctrlReturn {
				return k, v, err
			}
		}
	case NSync:
		return c.execSync(fr, n)
	case NReturn:
		if len(n.Kids) == 0 {
			return ctrlReturn, vm.Value{}, nil
		}
		v, err := c.eval(fr, n.Kids[0])
		if err != nil {
			return ctrlNext, vm.Value{}, err
		}
		return ctrlReturn, v, nil
	case NThrow:
		v, err := c.eval(fr, n.Kids[0])
		if err != nil {
			return ctrlNext, vm.Value{}, err
		}
		return ctrlNext, vm.Value{}, &vm.Thrown{Code: v.I}
	case NTry:
		k, v, err := c.execStmt(fr, n.Kids[0])
		if thr, ok := err.(*vm.Thrown); ok {
			fr.enter(n.Slot, n.SlotEnd)
			fr.bind(n.Slot, vm.IntVal(thr.Code))
			k, v, err = c.execStmt(fr, n.Kids[1])
		}
		return k, v, err
	case NPrint:
		v, err := c.eval(fr, n.Kids[0])
		if err != nil {
			return ctrlNext, vm.Value{}, err
		}
		c.Env.Print(v)
		return ctrlNext, vm.Value{}, nil
	case NExprStmt:
		_, err := c.eval(fr, n.Kids[0])
		return ctrlNext, vm.Value{}, err
	case NUncommonTrap:
		// A compiled speculation failed at runtime: log the trap, count
		// it, and interpret the original statement inline. Too many
		// traps invalidate the compiled code so the method recompiles
		// without the speculation.
		c.trapCount++
		profile.EmitBehavior(c.Log, profile.FlagTraceDeoptimization, profile.LineUncommonTrap,
			"Uncommon trap occurred in %s reason=%s", c.F.Key(), n.Name)
		c.Cov.Hit("c2.traps.fire")
		c.Cov.Hit("runtime.deopt")
		if c.trapLimit > 0 && c.trapCount >= c.trapLimit {
			c.Env.InvalidateCode(c.F.Key())
		}
		return c.execStmt(fr, n.Kids[0])
	}
	return ctrlNext, vm.Value{}, fmt.Errorf("jit: exec: bad statement kind %v", n.Kind)
}

func (c *Compiled) execFor(fr *frame, n *Node) (ctrl, vm.Value, error) {
	from, err := c.eval(fr, n.Kids[0])
	if err != nil {
		return ctrlNext, vm.Value{}, err
	}
	fr.enter(n.Slot, n.SlotEnd)
	fr.bind(n.Slot, vm.IntVal(from.I))
	for {
		if err := c.Env.Step(); err != nil {
			return ctrlNext, vm.Value{}, err
		}
		to, err := c.eval(fr, n.Kids[1])
		if err != nil {
			return ctrlNext, vm.Value{}, err
		}
		if fr.vals[n.Slot].I >= to.I {
			return ctrlNext, vm.Value{}, nil
		}
		k, v, err := c.execStmt(fr, n.Kids[2])
		if err != nil || k == ctrlReturn {
			return k, v, err
		}
		fr.vals[n.Slot] = vm.IntVal(fr.vals[n.Slot].I + n.Step)
	}
}

func (c *Compiled) execSync(fr *frame, n *Node) (ctrl, vm.Value, error) {
	mon, err := c.eval(fr, n.Kids[0])
	if err != nil {
		return ctrlNext, vm.Value{}, err
	}
	if err := c.Env.MonitorEnter(mon); err != nil {
		return ctrlNext, vm.Value{}, err
	}
	k, v, err := c.execStmt(fr, n.Kids[1])
	if err != nil {
		if _, isThrown := err.(*vm.Thrown); isThrown && n.NoExcCleanup {
			// Seeded defect: the compiled exception path omits the
			// monitor release (Listing 1's hazard). The monitor leaks.
			return k, v, err
		}
		if exitErr := c.Env.MonitorExit(mon); exitErr != nil {
			return ctrlNext, vm.Value{}, exitErr
		}
		return k, v, err
	}
	if exitErr := c.Env.MonitorExit(mon); exitErr != nil {
		return ctrlNext, vm.Value{}, exitErr
	}
	return k, v, nil
}

func (c *Compiled) eval(fr *frame, n *Node) (vm.Value, error) {
	if err := c.Env.Step(); err != nil {
		return vm.Value{}, err
	}
	switch n.Kind {
	case NConstInt:
		if n.IsLong {
			return vm.LongVal(n.IVal), nil
		}
		return vm.IntVal(n.IVal), nil
	case NConstBool:
		return vm.BoolVal(n.IVal != 0), nil
	case NConstStr:
		return vm.StrVal(n.SVal), nil
	case NVar:
		for _, slot := range n.Slots {
			if fr.bound[slot] {
				return fr.vals[slot], nil
			}
		}
		return vm.Value{}, fmt.Errorf("jit: exec: unbound variable %q in %s", n.Name, c.F.Key())
	case NFieldGet:
		if n.Static {
			return c.Env.GetStatic(staticRef(n)), nil
		}
		recv, err := c.eval(fr, n.Kids[0])
		if err != nil {
			return vm.Value{}, err
		}
		if recv.Kind != vm.KObj || recv.Obj == nil {
			return vm.Value{}, &vm.Thrown{Code: bytecode.ExcNullPointer}
		}
		return recv.Obj.Field(n.ClassID, n.Slot, n.Name), nil
	case NBinary:
		return c.evalBinary(fr, n)
	case NUnary:
		x, err := c.eval(fr, n.Kids[0])
		if err != nil {
			return vm.Value{}, err
		}
		switch n.UnOp {
		case lang.OpNeg:
			return vm.Arith(func(a, _ int64) int64 { return -a }, x, x), nil
		case lang.OpBitNot:
			return vm.Arith(func(a, _ int64) int64 { return ^a }, x, x), nil
		case lang.OpNot:
			return vm.BoolVal(x.I == 0), nil
		}
	case NCall, NReflectCall:
		recvNode, argNodes := CallArgs(n)
		recv := vm.NullVal()
		if recvNode != nil {
			var err error
			recv, err = c.eval(fr, recvNode)
			if err != nil {
				return vm.Value{}, err
			}
		}
		args := make([]vm.Value, len(argNodes))
		for i, a := range argNodes {
			v, err := c.eval(fr, a)
			if err != nil {
				return vm.Value{}, err
			}
			args[i] = v
		}
		ref := bytecode.MethodRef{Class: n.Class, Method: n.Name, Static: n.Static, NArgs: len(argNodes)}
		if n.Kind == NReflectCall {
			c.Cov.Hit("runtime.reflection")
			for i := 0; i < 8; i++ {
				if err := c.Env.Step(); err != nil {
					return vm.Value{}, err
				}
			}
		}
		return c.Env.Call(ref, recv, args)
	case NReflectGet:
		c.Cov.Hit("runtime.reflection")
		if n.Static {
			return c.Env.GetStatic(staticRef(n)), nil
		}
		recv, err := c.eval(fr, n.Kids[0])
		if err != nil {
			return vm.Value{}, err
		}
		if recv.Kind != vm.KObj || recv.Obj == nil {
			return vm.Value{}, &vm.Thrown{Code: bytecode.ExcNullPointer}
		}
		return recv.Obj.Field(n.ClassID, n.Slot, n.Name), nil
	case NNew:
		return c.Env.NewObject(n.Class), nil
	case NNewArray:
		l, err := c.eval(fr, n.Kids[0])
		if err != nil {
			return vm.Value{}, err
		}
		return c.Env.NewArray(l.I), nil
	case NIndex:
		arr, err := c.eval(fr, n.Kids[0])
		if err != nil {
			return vm.Value{}, err
		}
		idx, err := c.eval(fr, n.Kids[1])
		if err != nil {
			return vm.Value{}, err
		}
		if arr.Kind != vm.KArr || arr.Arr == nil {
			return vm.Value{}, &vm.Thrown{Code: bytecode.ExcNullPointer}
		}
		if idx.I < 0 || idx.I >= int64(len(arr.Arr.Elems)) {
			return vm.Value{}, &vm.Thrown{Code: bytecode.ExcArrayBounds}
		}
		return vm.IntVal(arr.Arr.Elems[idx.I]), nil
	case NBox:
		x, err := c.eval(fr, n.Kids[0])
		if err != nil {
			return vm.Value{}, err
		}
		return c.Env.NewBox(x.I), nil
	case NUnbox:
		x, err := c.eval(fr, n.Kids[0])
		if err != nil {
			return vm.Value{}, err
		}
		if x.Kind != vm.KBox || x.Obj == nil {
			return vm.Value{}, &vm.Thrown{Code: bytecode.ExcNullPointer}
		}
		return vm.IntVal(x.Obj.BoxVal), nil
	case NWiden:
		x, err := c.eval(fr, n.Kids[0])
		if err != nil {
			return vm.Value{}, err
		}
		return vm.LongVal(x.I), nil
	case NNullCheck:
		x, err := c.eval(fr, n.Kids[0])
		if err != nil {
			return vm.Value{}, err
		}
		if x.Kind == vm.KNull {
			return vm.Value{}, &vm.Thrown{Code: bytecode.ExcNullPointer}
		}
		return x, nil
	case NCond:
		cond, err := c.eval(fr, n.Kids[0])
		if err != nil {
			return vm.Value{}, err
		}
		if cond.Bool() {
			return c.eval(fr, n.Kids[1])
		}
		return c.eval(fr, n.Kids[2])
	}
	return vm.Value{}, fmt.Errorf("jit: exec: bad expression kind %v", n.Kind)
}

func (c *Compiled) evalBinary(fr *frame, n *Node) (vm.Value, error) {
	op := n.BinOp
	// Short-circuit logical operators must not evaluate the RHS eagerly.
	if op == lang.OpLAnd || op == lang.OpLOr {
		l, err := c.eval(fr, n.Kids[0])
		if err != nil {
			return vm.Value{}, err
		}
		if op == lang.OpLAnd && !l.Bool() {
			return vm.BoolVal(false), nil
		}
		if op == lang.OpLOr && l.Bool() {
			return vm.BoolVal(true), nil
		}
		r, err := c.eval(fr, n.Kids[1])
		if err != nil {
			return vm.Value{}, err
		}
		return vm.BoolVal(r.Bool()), nil
	}
	l, err := c.eval(fr, n.Kids[0])
	if err != nil {
		return vm.Value{}, err
	}
	r, err := c.eval(fr, n.Kids[1])
	if err != nil {
		return vm.Value{}, err
	}
	switch op {
	case lang.OpAdd:
		return vm.Arith(func(a, b int64) int64 { return a + b }, l, r), nil
	case lang.OpSub:
		return vm.Arith(func(a, b int64) int64 { return a - b }, l, r), nil
	case lang.OpMul:
		return vm.Arith(func(a, b int64) int64 { return a * b }, l, r), nil
	case lang.OpDiv:
		if r.I == 0 {
			return vm.Value{}, &vm.Thrown{Code: bytecode.ExcArithmetic}
		}
		return vm.Arith(func(a, b int64) int64 { return a / b }, l, r), nil
	case lang.OpRem:
		if r.I == 0 {
			return vm.Value{}, &vm.Thrown{Code: bytecode.ExcArithmetic}
		}
		return vm.Arith(func(a, b int64) int64 { return a % b }, l, r), nil
	case lang.OpAnd:
		if l.Kind == vm.KBool {
			return vm.BoolVal(l.I != 0 && r.I != 0), nil
		}
		return vm.Arith(func(a, b int64) int64 { return a & b }, l, r), nil
	case lang.OpOr:
		if l.Kind == vm.KBool {
			return vm.BoolVal(l.I != 0 || r.I != 0), nil
		}
		return vm.Arith(func(a, b int64) int64 { return a | b }, l, r), nil
	case lang.OpXor:
		if l.Kind == vm.KBool {
			return vm.BoolVal((l.I != 0) != (r.I != 0)), nil
		}
		return vm.Arith(func(a, b int64) int64 { return a ^ b }, l, r), nil
	case lang.OpShl:
		if l.Kind == vm.KLong {
			return vm.Arith(func(a, b int64) int64 { return a << uint(b&63) }, l, r), nil
		}
		return vm.Arith(func(a, b int64) int64 { return int64(int32(a) << uint(b&31)) }, l, r), nil
	case lang.OpShr:
		if l.Kind == vm.KLong {
			return vm.Arith(func(a, b int64) int64 { return a >> uint(b&63) }, l, r), nil
		}
		return vm.Arith(func(a, b int64) int64 { return int64(int32(a) >> uint(b&31)) }, l, r), nil
	case lang.OpEq, lang.OpNe:
		eq := false
		if l.IsRef() && r.IsRef() {
			eq = vm.SameRef(l, r)
		} else {
			eq = l.I == r.I
		}
		if op == lang.OpNe {
			eq = !eq
		}
		return vm.BoolVal(eq), nil
	case lang.OpLt:
		return vm.BoolVal(l.I < r.I), nil
	case lang.OpLe:
		return vm.BoolVal(l.I <= r.I), nil
	case lang.OpGt:
		return vm.BoolVal(l.I > r.I), nil
	case lang.OpGe:
		return vm.BoolVal(l.I >= r.I), nil
	}
	return vm.Value{}, fmt.Errorf("jit: exec: bad binary op %v", op)
}

// staticRef rebuilds the bytecode-level ref of a resolved static site.
func staticRef(n *Node) bytecode.FieldRef {
	return bytecode.FieldRef{Class: n.Class, Name: n.Name, Static: true, ClassID: -1, Slot: n.Slot}
}
