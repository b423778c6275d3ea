package jit

import "repro/internal/bytecode"

// resolve assigns every local binding and use in f a frame slot, and
// every field and static site its slot in img's layouts. It runs once
// per compilation, after the passes and before the compile cache shares
// f, so all it writes is a pure function of the program; f is read-only
// from then on. Hand-built Funcs must go through it too: Invoke refuses
// an unresolved Func.
//
// Slots reproduce the dynamic scope stack exactly. A scope is the
// method root (receiver and parameters), an NSeq, an NTry catch clause,
// or an NFor — which is two scopes, the loop variable and then the
// bindings its body makes without a scope of its own, so a body that
// redeclares the loop variable shadows it while the increment still
// advances the loop variable. A scope owns one slot per name bound
// directly in it (declared, or assigned with no binding in reach), and
// all its slots are unbound on entry. A use lists the slots of every
// enclosing scope that may bind its name, innermost first, and at run
// time the first bound one wins. So inner bindings shadow outer ones,
// a declaration on a path not taken binds nothing, and a use with no
// bound slot is the "unbound variable" error.
func resolve(f *Func, img *bytecode.Image) {
	r := &resolver{img: img}
	var names []string
	if f.HasReceiver {
		names = addName(names, "this")
	}
	for _, p := range f.Params {
		names = addName(names, p.Name)
	}
	root := r.open(nil, boundIn(f.Body, names))
	f.ArgSlots = nil
	if f.HasReceiver {
		f.ArgSlots = append(f.ArgSlots, root.slot("this"))
	}
	for _, p := range f.Params {
		f.ArgSlots = append(f.ArgSlots, root.slot(p.Name))
	}
	r.stmt(f.Body, root)
	f.FrameSize = int(r.size)
	f.resolved = true
}

// rscope is one static scope: its names own slots lo, lo+1, ...
type rscope struct {
	outer *rscope
	names []string
	lo    int32
}

func (s *rscope) hi() int32 { return s.lo + int32(len(s.names)) }

func (s *rscope) slot(name string) int32 {
	for i, n := range s.names {
		if n == name {
			return s.lo + int32(i)
		}
	}
	return -1
}

type resolver struct {
	img  *bytecode.Image
	size int32 // frame size: the deepest scope's end
}

// open starts a scope above outer's slots (sibling scopes reuse them).
func (r *resolver) open(outer *rscope, names []string) *rscope {
	s := &rscope{outer: outer, names: names}
	if outer != nil {
		s.lo = outer.hi()
	}
	r.size = max(r.size, s.hi())
	return s
}

func addName(names []string, name string) []string {
	for _, n := range names {
		if n == name {
			return names
		}
	}
	return append(names, name)
}

// boundIn adds the names statement n can bind in the scope it runs in:
// its declarations and assignments, including those in branches and
// bodies that run without a scope of their own.
func boundIn(n *Node, names []string) []string {
	switch n.Kind {
	case NDecl, NAssignVar:
		names = addName(names, n.Name)
	case NIf:
		for _, k := range n.Kids[1:] {
			names = boundIn(k, names)
		}
	case NWhile, NSync:
		names = boundIn(n.Kids[1], names)
	case NTry, NUncommonTrap:
		names = boundIn(n.Kids[0], names)
	}
	return names
}

// uses lists the slots that may hold name at a point in scope s,
// innermost first.
func uses(s *rscope, name string) []int32 {
	var out []int32
	for ; s != nil; s = s.outer {
		if slot := s.slot(name); slot >= 0 {
			out = append(out, slot)
		}
	}
	return out
}

func (r *resolver) stmt(n *Node, s *rscope) {
	switch n.Kind {
	case NSeq:
		var names []string
		for _, k := range n.Kids {
			names = boundIn(k, names)
		}
		inner := r.open(s, names)
		n.Slot, n.SlotEnd = inner.lo, inner.hi()
		for _, k := range n.Kids {
			r.stmt(k, inner)
		}
	case NDecl:
		r.expr(n.Kids[0], s)
		n.Slot = s.slot(n.Name)
	case NAssignVar:
		r.expr(n.Kids[0], s)
		n.Slots = uses(s, n.Name)
	case NFor:
		r.expr(n.Kids[0], s)
		loop := r.open(s, []string{n.Name})
		body := r.open(loop, boundIn(n.Kids[2], nil))
		n.Slot, n.SlotEnd = loop.lo, body.hi()
		r.expr(n.Kids[1], body)
		r.stmt(n.Kids[2], body)
	case NTry:
		r.stmt(n.Kids[0], s)
		catch := r.open(s, boundIn(n.Kids[1], []string{n.Name}))
		n.Slot, n.SlotEnd = catch.lo, catch.hi()
		r.stmt(n.Kids[1], catch)
	default:
		if n.Kind == NAssignField {
			r.field(n)
		}
		for _, k := range n.Kids {
			if k.Kind.IsStmt() {
				r.stmt(k, s)
			} else {
				r.expr(k, s)
			}
		}
	}
}

func (r *resolver) expr(n *Node, s *rscope) {
	n.Walk(func(m *Node) bool {
		switch m.Kind {
		case NVar:
			m.Slots = uses(s, m.Name)
		case NFieldGet, NReflectGet:
			r.field(m)
		}
		return true
	})
}

func (r *resolver) field(n *Node) {
	n.ClassID, n.Slot = r.img.ResolveField(n.Class, n.Name, n.Static)
}
