package vm

import "repro/internal/bytecode"

// Tier identifies a compilation tier.
type Tier int

// Tiers.
const (
	TierInterpreter Tier = iota
	TierC1
	TierC2
)

func (t Tier) String() string {
	switch t {
	case TierC1:
		return "C1"
	case TierC2:
		return "C2"
	}
	return "interpreter"
}

// CompiledMethod is executable code produced by a JIT tier.
type CompiledMethod interface {
	// Invoke runs the compiled code. args holds the receiver (for
	// instance methods) followed by the declared parameters. The
	// result is the return value (ignored for void methods).
	Invoke(args []Value) (Value, error)
}

// Compiler is the JIT interface the machine tiers up through. A nil
// Compiler leaves the machine in pure-interpreter mode.
type Compiler interface {
	// Compile translates fn at the given tier. env provides runtime
	// services (allocation, statics, calls, monitors, output, fuel).
	// A returned *Crash error models a compiler crash.
	Compile(fn *bytecode.Function, tier Tier, env Env) (CompiledMethod, error)
}

// Env is the runtime-service interface the machine exposes to compiled
// code and to the JIT compiler.
type Env interface {
	// Allocation.
	NewObject(class string) Value
	NewBox(v int64) Value
	NewArray(n int64) Value

	// Statics, through a ref resolved against the image (Slot -1 for
	// a name no declaration matches).
	GetStatic(ref bytecode.FieldRef) Value
	SetStatic(ref bytecode.FieldRef, v Value)

	// Interned string monitors (string literals lock a shared object).
	StringMonitor(s string) *Object

	// Calls dispatch through the tiering machinery, so a compiled
	// caller can reach an interpreted callee and vice versa. recv is
	// ignored for static targets.
	Call(ref bytecode.MethodRef, recv Value, args []Value) (Value, error)

	// Monitors. Enter/Exit return ErrIllegalMonitor on imbalance.
	// Compiled code is responsible for balancing its own regions
	// (seeded bugs deliberately break this; the machine observes the
	// leak).
	MonitorEnter(v Value) error
	MonitorExit(v Value) error

	// Output channel (the differential-testing oracle input).
	Print(v Value)

	// Step consumes fuel; it returns ErrTimeout when the budget is gone.
	Step() error

	// InvalidateCode discards the compiled form of a method (deopt),
	// returning it to the interpreter until it re-tiers.
	InvalidateCode(fnKey string)

	// DeoptCount reports how many times a method has been invalidated,
	// letting recompilations drop the failing speculation.
	DeoptCount(fnKey string) int

	// Image exposes the loaded program, letting the compiler resolve
	// callees for inlining.
	Image() *bytecode.Image
}
