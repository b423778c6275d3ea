package vm

import "repro/internal/bytecode"

// Object is a heap-allocated class instance. BoxVal holds the wrapped
// int when the object is a java.lang.Integer box.
//
// Fields is slot-indexed by the class's layout. A name the layout does
// not declare (a seeded miscompilation can access one) lives in the
// overflow map, so reads and writes behave exactly as a map keyed by
// field name would: an unwritten name reads as the zero Value{}.
type Object struct {
	Class    string
	Fields   []Value
	Mon      Monitor
	BoxVal   int64
	layout   *bytecode.Layout // nil for boxes, monitors, and unknown classes
	overflow map[string]Value
	marked   bool
}

// Field reads a field through a site resolved to (classID, slot). The
// slot is used only when o's class is the class the site was resolved
// against; any other receiver is looked up by name.
func (o *Object) Field(classID, slot int32, name string) Value {
	if l := o.layout; l != nil && l.ID == classID {
		return o.Fields[slot]
	}
	if s := o.layout.Slot(name); s >= 0 {
		return o.Fields[s]
	}
	return o.overflow[name]
}

// SetField writes a field through a resolved site (see Field).
func (o *Object) SetField(classID, slot int32, name string, v Value) {
	if l := o.layout; l != nil && l.ID == classID {
		o.Fields[slot] = v
		return
	}
	if s := o.layout.Slot(name); s >= 0 {
		o.Fields[s] = v
		return
	}
	if o.overflow == nil {
		o.overflow = map[string]Value{}
	}
	o.overflow[name] = v
}

// Array is a heap-allocated int array.
type Array struct {
	Elems  []int64
	Mon    Monitor
	marked bool
}

// Monitor models a (single-threaded) Java monitor: a re-entrant lock
// with an entry depth. An exit on a monitor with zero depth is an
// IllegalMonitorStateException; the fuzzer's oracles watch for leaked
// (still-held) monitors after program exit, the symptom of the inlining
// interaction bug in the paper's Listing 1.
type Monitor struct {
	Depth int
}

// Heap owns all allocations and runs a mark-sweep collector. The GC is a
// genuine substrate component: it traces roots the machine provides, and
// its activity feeds the coverage model's GC component.
type Heap struct {
	objects []*Object
	arrays  []*Array

	AllocCount int   // total allocations
	Units      int64 // cumulative allocation units: objects + boxes + array elements
	GCEvery    int   // allocations between collections (0 = never)
	GCCycles   int   // collections performed
	Freed      int   // cells reclaimed across all cycles
	sinceGC    int
	onGC       func(live, freed int)
}

// NewHeap returns a heap collecting every gcEvery allocations.
func NewHeap(gcEvery int) *Heap {
	return &Heap{GCEvery: gcEvery}
}

// SetGCHook installs a callback invoked after each collection.
func (h *Heap) SetGCHook(fn func(live, freed int)) { h.onGC = fn }

// NewObject allocates an instance with the layout's zero fields; a nil
// layout (a class absent from the image) gives an object whose every
// field lives in the overflow map.
func (h *Heap) NewObject(class string, layout *bytecode.Layout) *Object {
	o := &Object{Class: class, layout: layout}
	if layout != nil && len(layout.Refs) > 0 {
		o.Fields = make([]Value, len(layout.Refs))
		for i, isRef := range layout.Refs {
			if isRef {
				o.Fields[i] = Value{Kind: KNull}
			} else {
				o.Fields[i] = Value{Kind: KInt}
			}
		}
	}
	h.objects = append(h.objects, o)
	h.bump(1)
	return o
}

// NewBox allocates an Integer box.
func (h *Heap) NewBox(v int64) *Object {
	o := &Object{Class: "Integer", BoxVal: int64(int32(v))}
	h.objects = append(h.objects, o)
	h.bump(1)
	return o
}

// NewArray allocates an int array of length n.
func (h *Heap) NewArray(n int64) *Array {
	if n < 0 {
		n = 0
	}
	a := &Array{Elems: make([]int64, n)}
	h.arrays = append(h.arrays, a)
	h.bump(1 + n)
	return a
}

func (h *Heap) bump(units int64) {
	h.AllocCount++
	h.Units += units
	h.sinceGC++
}

// Live returns the number of live heap cells (post any pending GC this is
// exact; between GCs it includes garbage).
func (h *Heap) Live() int { return len(h.objects) + len(h.arrays) }

// NeedsGC reports whether the allocation budget since the last collection
// is exhausted.
func (h *Heap) NeedsGC() bool { return h.GCEvery > 0 && h.sinceGC >= h.GCEvery }

// Collect runs a mark-sweep cycle from the given roots.
func (h *Heap) Collect(roots []Value) (live, freed int) {
	h.sinceGC = 0
	h.GCCycles++
	for _, r := range roots {
		markValue(r)
	}
	var objs []*Object
	for _, o := range h.objects {
		if o.marked {
			o.marked = false
			objs = append(objs, o)
		} else {
			freed++
		}
	}
	h.objects = objs
	var arrs []*Array
	for _, a := range h.arrays {
		if a.marked {
			a.marked = false
			arrs = append(arrs, a)
		} else {
			freed++
		}
	}
	h.arrays = arrs
	h.Freed += freed
	live = h.Live()
	if h.onGC != nil {
		h.onGC(live, freed)
	}
	return live, freed
}

func markValue(v Value) {
	switch v.Kind {
	case KObj, KBox:
		markObject(v.Obj)
	case KArr:
		if v.Arr != nil {
			v.Arr.marked = true
		}
	}
}

func markObject(o *Object) {
	if o == nil || o.marked {
		return
	}
	o.marked = true
	for _, f := range o.Fields {
		markValue(f)
	}
	for _, f := range o.overflow {
		markValue(f)
	}
}
