package jit

import (
	"slices"

	"repro/internal/lang"
	"repro/internal/profile"
)

// passScalarReplace replaces NoEscape allocations whose remaining uses
// are only field reads and writes with one scalar local per field
// (HotSpot's EliminateAllocations). It runs after the lock passes, which
// remove monitor uses of such objects; an allocation still used as a
// monitor is left alone.
func passScalarReplace(ctx *Context) error {
	if ctx.Escape == nil {
		return nil
	}
	img := ctx.Env.Image()
	for name, st := range ctx.Escape {
		if st != NoEscape {
			continue
		}
		if !scalarReplaceable(ctx.Fn.Body, name) {
			continue
		}
		// Find the declaration and the class's instance fields.
		var decl *Node
		ctx.Fn.Body.Walk(func(n *Node) bool {
			if n.Kind == NDecl && n.Name == name && n.Kids[0].Kind == NNew {
				decl = n
			}
			return true
		})
		if decl == nil {
			continue
		}
		cf := img.Class(decl.Kids[0].Class)
		if cf == nil {
			continue
		}
		if slices.Contains(cf.Layout.Refs, true) {
			continue // reference fields would need a null constant
		}

		// Rewrite the declaration into per-field scalar declarations.
		repl := Seq()
		repl.Prov = decl.Prov | FromScalarReplace
		for _, f := range cf.Layout.Names {
			repl.Kids = append(repl.Kids, &Node{Kind: NDecl, Name: name + "$" + f,
				Ty: lang.Int, Prov: repl.Prov, Kids: []*Node{ConstInt(0)}})
		}
		*decl = *repl

		// Rewrite field accesses into scalar reads/writes.
		rewriteFieldUses(ctx.Fn.Body, name)

		ctx.Cover("c2.scalar.replace")
		ctx.EmitBehaviorf(profile.FlagPrintEliminateAllocations, profile.LineScalarReplace, "Scalar replaced allocation %s (%s)", name, cf.Name)
		if err := ctx.Record(Event{Pass: "escape", Behavior: profile.BScalarReplace,
			Detail: name, Prov: repl.Prov}); err != nil {
			return err
		}
	}
	return nil
}

// scalarReplaceable verifies the local's only uses are field get/set
// with the local as a direct receiver.
func scalarReplaceable(body *Node, name string) bool {
	ok := true
	var visit func(n *Node, recvSlot bool)
	visit = func(n *Node, recvSlot bool) {
		if n == nil || !ok {
			return
		}
		if n.Kind == NVar && n.Name == name && !recvSlot {
			ok = false
			return
		}
		switch n.Kind {
		case NFieldGet:
			if len(n.Kids) == 1 {
				visit(n.Kids[0], true)
			}
		case NAssignField:
			if !n.Static {
				visit(n.Kids[0], true)
				visit(n.Kids[1], false)
				return
			}
			visit(n.Kids[0], false)
		default:
			for _, k := range n.Kids {
				visit(k, false)
			}
		}
	}
	// Scan all statements; the declaration's own init (new C()) is exempt.
	body.Walk(func(n *Node) bool {
		if !ok {
			return false
		}
		switch n.Kind {
		case NDecl:
			if n.Name == name {
				return false // skip the allocation init
			}
			visit(n.Kids[0], false)
			return false
		case NAssignField:
			if !n.Static {
				visit(n.Kids[0], true)
				visit(n.Kids[1], false)
				return false
			}
			visit(n.Kids[0], false)
			return false
		case NFieldGet:
			if len(n.Kids) == 1 {
				visit(n.Kids[0], true)
			}
			return false
		case NVar:
			if n.Name == name {
				ok = false
			}
		}
		return true
	})
	return ok
}

// rewriteFieldUses converts t.f reads and writes into t$f locals.
func rewriteFieldUses(body *Node, name string) {
	rewriteExprs(body, func(n *Node) *Node {
		switch n.Kind {
		case NFieldGet:
			if len(n.Kids) == 1 && n.Kids[0].Kind == NVar && n.Kids[0].Name == name {
				return &Node{Kind: NVar, Name: name + "$" + n.Name, Ty: n.Ty,
					Prov: n.Prov | FromScalarReplace}
			}
		case NAssignField:
			if !n.Static && n.Kids[0].Kind == NVar && n.Kids[0].Name == name {
				return &Node{Kind: NAssignVar, Name: name + "$" + n.Name, Ty: n.Ty,
					Prov: n.Prov | FromScalarReplace, Kids: []*Node{n.Kids[1]}}
			}
		}
		return n
	})
}
