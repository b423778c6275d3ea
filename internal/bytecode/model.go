package bytecode

import (
	"fmt"

	"repro/internal/lang"
)

// MethodRef names a callable method in the image.
type MethodRef struct {
	Class  string
	Method string
	Static bool
	NArgs  int  // declared parameters (excluding receiver)
	Void   bool // true when the method returns void
}

func (r MethodRef) String() string {
	kind := "virtual"
	if r.Static {
		kind = "static"
	}
	return fmt.Sprintf("%s %s.%s/%d", kind, r.Class, r.Method, r.NArgs)
}

// FieldRef names a field in the image. Compile resolves it once: an
// instance field to ClassID (the index of Class in the image) and Slot
// (the field's index in that class's Layout); a static to Slot, its
// index in Image.Statics. A name no declaration matches resolves to
// ClassID/Slot -1, and the runtime falls back to a lookup by name.
type FieldRef struct {
	Class   string
	Name    string
	Static  bool
	ClassID int32
	Slot    int32
}

func (r FieldRef) String() string { return r.Class + "." + r.Name }

// ExRange is one exception-table entry: if an exception unwinds while
// pc is in [Start, End), control transfers to Handler with the thrown
// code stored into local CatchSlot. MonDepth records the frame monitor
// depth at try entry so the runtime can release monitors entered inside
// the protected range before running the handler.
type ExRange struct {
	Start, End int32
	Handler    int32
	CatchSlot  int32
	MonDepth   int32
}

// Function is one compiled method.
type Function struct {
	Class        string
	Name         string
	NParams      int // locals 0..NParams-1 hold receiver (if any) then args
	HasReceiver  bool
	NLocals      int
	Void         bool
	Synchronized bool

	Code    []Instr
	Ints    []int64     // integer constant pool
	Strs    []string    // string constant pool
	Methods []MethodRef // method refs, indexed by Invoke A operands
	Fields  []FieldRef  // field refs, indexed by field ops
	Classes []string    // class refs, indexed by NewObj
	ExTable []ExRange

	// Source is the method's tree form, retained for the JIT tiers
	// (analogous to HotSpot retaining bytecode for recompilation).
	Source *lang.Method

	// key caches Key(). Compile fills it eagerly so concurrent readers
	// never race on a lazy write; hand-built Functions fall back to
	// concatenation.
	key string
}

// Key returns "Class.Name", the image-wide function key.
func (f *Function) Key() string {
	if f.key != "" {
		return f.key
	}
	return f.Class + "." + f.Name
}

// ClassFile is one compiled class.
type ClassFile struct {
	Name   string
	Layout *Layout // instance fields
	Funcs  []*Function
}

// Layout is a class's instance-field layout: slot i holds field
// Names[i], in declaration order. Refs is the zero-value template: a
// reference-typed slot starts null, any other slot starts at 0.
type Layout struct {
	ID    int32 // index of the class in Image.Classes
	Names []string
	Refs  []bool
}

// Slot returns the slot of the named field, or -1 (also for a nil
// layout).
func (l *Layout) Slot(name string) int32 {
	if l == nil {
		return -1
	}
	for i, n := range l.Names {
		if n == name {
			return int32(i)
		}
	}
	return -1
}

// Static is one static field, stored at its index in Image.Statics.
type Static struct {
	Class string
	Name  string
	IsRef bool // reference-typed: starts null rather than 0
}

// Func returns the named function of the class, or nil.
func (c *ClassFile) Func(name string) *Function {
	for _, f := range c.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Image is a fully compiled program: the unit the VM loads and runs.
type Image struct {
	Classes    []*ClassFile
	Statics    []Static // every class's static fields, in declaration order
	EntryClass string
	// Program is the source program, retained for the JIT tiers.
	Program *lang.Program
}

// Class returns the named class file, or nil.
func (img *Image) Class(name string) *ClassFile {
	for _, c := range img.Classes {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// ResolveField resolves a field name against the image's layouts: an
// instance field to its class ID and slot, a static to its index in
// Statics. Names no declaration matches resolve to -1, -1.
func (img *Image) ResolveField(class, name string, static bool) (classID, slot int32) {
	if static {
		for i, s := range img.Statics {
			if s.Class == class && s.Name == name {
				return -1, int32(i)
			}
		}
		return -1, -1
	}
	if c := img.Class(class); c != nil {
		if s := c.Layout.Slot(name); s >= 0 {
			return c.Layout.ID, s
		}
	}
	return -1, -1
}

// Lookup resolves a method ref to its function, or nil.
func (img *Image) Lookup(ref MethodRef) *Function {
	c := img.Class(ref.Class)
	if c == nil {
		return nil
	}
	return c.Func(ref.Method)
}

// Entry returns the program's main function, or nil.
func (img *Image) Entry() *Function {
	c := img.Class(img.EntryClass)
	if c == nil {
		return nil
	}
	return c.Func("main")
}

// Functions returns every function in the image in declaration order.
func (img *Image) Functions() []*Function {
	var out []*Function
	for _, c := range img.Classes {
		out = append(out, c.Funcs...)
	}
	return out
}
