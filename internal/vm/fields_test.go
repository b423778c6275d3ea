package vm

import (
	"testing"

	"repro/internal/bytecode"
)

// twoClasses declares the same field names in different slot orders, so
// a site resolved against one class lands on the wrong slot if the
// runtime-class guard is ever skipped.
const twoClasses = `
class A {
  int x;
  A y;
  static int s;
  static void main() { print(1); }
}
class B {
  B y;
  int x;
}`

func TestFieldSiteSeesOtherClass(t *testing.T) {
	img := compileForBench(t, twoClasses)
	m := NewMachine(img, Config{})
	ax, ay := refFor(t, img, "A", "x", false), refFor(t, img, "A", "y", false)
	if ax.Slot == refFor(t, img, "B", "x", false).Slot {
		t.Fatal("fixture does not lay x out differently in A and B")
	}
	b := m.NewObject("B").Obj
	if got := b.Field(ax.ClassID, ax.Slot, "x"); got != IntVal(0) {
		t.Errorf("B.x through A's site = %+v, want int 0", got)
	}
	if got := b.Field(ay.ClassID, ay.Slot, "y"); got != NullVal() {
		t.Errorf("B.y through A's site = %+v, want null", got)
	}
	b.SetField(ax.ClassID, ax.Slot, "x", IntVal(42))
	bx := refFor(t, img, "B", "x", false)
	if got := b.Field(bx.ClassID, bx.Slot, "x"); got != IntVal(42) {
		t.Errorf("B.x after a write through A's site = %+v, want 42", got)
	}
	if got := b.Field(ay.ClassID, ay.Slot, "y"); got != NullVal() {
		t.Errorf("write through A's x site clobbered B.y: %+v", got)
	}
	if len(b.overflow) != 0 {
		t.Errorf("declared names spilled to overflow: %v", b.overflow)
	}
}

func TestFieldOverflow(t *testing.T) {
	img := compileForBench(t, twoClasses)
	m := NewMachine(img, Config{})
	a := m.NewObject("A").Obj
	// A never-written undeclared name reads as the zero Value, exactly
	// as a missing map key did — not as a typed zero.
	if got := a.Field(-1, -1, "ghost"); got != (Value{}) {
		t.Errorf("unwritten undeclared field = %+v, want Value{}", got)
	}
	held := m.NewObject("B")
	a.SetField(-1, -1, "ghost", held)
	if got := a.Field(-1, -1, "ghost"); got != held {
		t.Errorf("undeclared field read back %+v, want the stored object", got)
	}
	ax := refFor(t, img, "A", "x", false)
	if got := a.Field(ax.ClassID, ax.Slot, "x"); got != IntVal(0) {
		t.Errorf("declared field disturbed by overflow write: %+v", got)
	}
	// The overflow map is traced: the object only it references
	// survives a collection rooted at its holder.
	m.Heap.Collect([]Value{ObjVal(a)})
	if live := m.Heap.Live(); live != 2 {
		t.Errorf("live after GC = %d, want 2 (holder + object held only through overflow)", live)
	}
}

func TestNewObjectOfAbsentClass(t *testing.T) {
	m := NewMachine(compileForBench(t, twoClasses), Config{})
	o := m.NewObject("Nowhere").Obj
	if o.Class != "Nowhere" || len(o.Fields) != 0 {
		t.Fatalf("object of absent class = %+v", o)
	}
	if got := o.Field(0, 0, "x"); got != (Value{}) {
		t.Errorf("field of absent-class object = %+v, want Value{}", got)
	}
	o.SetField(0, 0, "x", IntVal(3))
	if got := o.Field(0, 0, "x"); got != IntVal(3) {
		t.Errorf("field of absent-class object read back %+v, want 3", got)
	}
}

func TestUndeclaredStatic(t *testing.T) {
	img := compileForBench(t, twoClasses)
	m := NewMachine(img, Config{})
	s := refFor(t, img, "A", "s", true)
	ghost := bytecode.FieldRef{Class: "A", Name: "ghost", Static: true, ClassID: -1, Slot: -1}
	if got := m.GetStatic(ghost); got != (Value{}) {
		t.Errorf("unwritten undeclared static = %+v, want Value{}", got)
	}
	m.SetStatic(ghost, IntVal(9))
	if got := m.GetStatic(ghost); got != IntVal(9) {
		t.Errorf("undeclared static read back %+v, want 9", got)
	}
	if got := m.GetStatic(s); got != IntVal(0) {
		t.Errorf("declared static disturbed: %+v", got)
	}
}

// refFor resolves a field the way Compile does.
func refFor(t *testing.T, img *bytecode.Image, class, name string, static bool) bytecode.FieldRef {
	t.Helper()
	ref := bytecode.FieldRef{Class: class, Name: name, Static: static}
	ref.ClassID, ref.Slot = img.ResolveField(class, name, static)
	if ref.Slot < 0 {
		t.Fatalf("%s.%s does not resolve", class, name)
	}
	return ref
}
