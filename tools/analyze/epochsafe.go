package analyze

import (
	"go/ast"
	"go/token"
	"go/types"
)

// atomicWrites are the sync/atomic methods that mutate their receiver.
var atomicWrites = map[string]bool{
	"Store": true, "Add": true, "Swap": true, "CompareAndSwap": true, "And": true, "Or": true,
}

// runEpochSafe enforces the write-section discipline on shared state
// (the xstate seqlock table and the snapshots it copies out):
//
//  1. State of a //progmp:epochshared type may only be written, through
//     a pointer, inside a function annotated //progmp:publish (a write
//     section, or the one-time build of a snapshot before it is
//     handed out). A write is a plain assignment or increment, or a
//     mutating sync/atomic method (Store, Add, Swap, CompareAndSwap,
//     And, Or) on an atomic value held in such state. Any other write
//     races with lock-free readers. Writes to by-value copies are fine
//     and are not flagged.
//
//  2. A struct field must not mix sync/atomic access with plain
//     access: if &x.f is passed to an atomic function anywhere in the
//     package, every plain read or write of f is flagged.
func runEpochSafe(p *Pass) {
	plain := map[*types.Var][]ast.Expr{}      // plain accesses per field
	atomics := map[*types.Var]bool{}          // fields used via sync/atomic
	viaAtomic := map[*ast.SelectorExpr]bool{} // the x.f of each atomic &x.f

	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := p.Pkg.Info.Defs[fd.Name].(*types.Func)
			inPublish := fn != nil && p.Suite.FuncDirectives(fn).Publish
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						p.checkSharedWrite(lhs, inPublish)
					}
				case *ast.IncDecStmt:
					p.checkSharedWrite(n.X, inPublish)
				case *ast.CallExpr:
					if sel := p.atomicArgField(n); sel != nil {
						viaAtomic[sel] = true
						atomics[p.fieldOf(sel)] = true
					}
					if recv := p.atomicWriteRecv(n); recv != nil {
						p.checkSharedWrite(recv, inPublish)
					}
				case *ast.SelectorExpr:
					if f := p.fieldOf(n); f != nil {
						plain[f] = append(plain[f], n)
					}
				}
				return true
			})
		}
	}

	for f := range atomics {
		for _, x := range plain[f] {
			if sel, _ := x.(*ast.SelectorExpr); !viaAtomic[sel] {
				p.Reportf(x.Pos(), "field %s is accessed via sync/atomic elsewhere in this package; plain access races with it", f.Name())
			}
		}
	}
}

// checkSharedWrite reports a pointer write into an epochshared type
// outside a publish function.
func (p *Pass) checkSharedWrite(lhs ast.Expr, inPublish bool) {
	tn := p.sharedWriteTarget(lhs)
	if tn == nil || inPublish {
		return
	}
	p.Reportf(lhs.Pos(), "write to epoch-shared %s outside a //progmp:publish function", tn.Name())
}

// sharedWriteTarget reports the //progmp:epochshared type a write to
// lhs would mutate through a pointer or slice alias, or nil if the
// write cannot reach shared state (e.g. a by-value copy).
func (p *Pass) sharedWriteTarget(lhs ast.Expr) *types.TypeName {
	info := p.Pkg.Info
	switch e := ast.Unparen(lhs).(type) {
	case *ast.StarExpr:
		// *ptr = v overwrites the pointee wholesale.
		if tn := p.epochSharedNamed(info.TypeOf(e)); tn != nil {
			return tn
		}
	case *ast.SelectorExpr:
		// base.f = v writes shared state when base is a pointer to an
		// epochshared type, or an epochshared value that itself lives
		// behind a pointer (or a chain rooted in either).
		if t := info.TypeOf(e.X); t != nil {
			if ptr, ok := t.Underlying().(*types.Pointer); ok {
				if tn := p.epochSharedNamed(ptr.Elem()); tn != nil {
					return tn
				}
			}
			if tn := p.epochSharedNamed(t); tn != nil && p.behindPointer(e.X) {
				return tn
			}
		}
		return p.sharedWriteTarget(e.X)
	case *ast.IndexExpr:
		// sl[i] = v (or sl[i].f = v via the selector case above)
		// aliases shared backing when the element type is epochshared.
		if t := info.TypeOf(e.X); t != nil {
			var elem types.Type
			switch u := t.Underlying().(type) {
			case *types.Slice:
				elem = u.Elem()
			case *types.Array:
				elem = u.Elem()
			}
			if tn := p.epochSharedNamed(elem); tn != nil {
				return tn
			}
		}
		return p.sharedWriteTarget(e.X)
	}
	return nil
}

// behindPointer reports whether x denotes memory reached through a
// pointer dereference or a slice element, rather than a variable (a
// by-value copy) of its own.
func (p *Pass) behindPointer(x ast.Expr) bool {
	info := p.Pkg.Info
	switch e := ast.Unparen(x).(type) {
	case *ast.StarExpr:
		return true
	case *ast.SelectorExpr:
		if _, ok := info.TypeOf(e.X).Underlying().(*types.Pointer); ok {
			return true
		}
		return p.behindPointer(e.X)
	case *ast.IndexExpr:
		if _, ok := info.TypeOf(e.X).Underlying().(*types.Slice); ok {
			return true
		}
		return p.behindPointer(e.X)
	}
	return false
}

func (p *Pass) epochSharedNamed(t types.Type) *types.TypeName {
	if t == nil {
		return nil
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	tn := named.Obj()
	if p.Suite.TypeDirectives(tn).EpochShared {
		return tn
	}
	return nil
}

// fieldOf resolves lhs to a struct-field object, for the
// atomic-mixing check.
func (p *Pass) fieldOf(lhs ast.Expr) *types.Var {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s, ok := p.Pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, _ := s.Obj().(*types.Var)
	return v
}

// atomicArgField returns the x.f whose address is passed to a
// sync/atomic function in this call, if any.
func (p *Pass) atomicArgField(call *ast.CallExpr) *ast.SelectorExpr {
	kind, callee, _ := resolveCall(p.Pkg.Info, call)
	if kind != callStatic || callee.Pkg() == nil || callee.Pkg().Path() != "sync/atomic" {
		return nil
	}
	for _, arg := range call.Args {
		u, ok := ast.Unparen(arg).(*ast.UnaryExpr)
		if !ok || u.Op != token.AND {
			continue
		}
		if sel, ok := ast.Unparen(u.X).(*ast.SelectorExpr); ok && p.fieldOf(sel) != nil {
			return sel
		}
	}
	return nil
}

// atomicWriteRecv returns the receiver of a mutating sync/atomic method
// call (v.Store(x), v.Add(1), ...), if call is one.
func (p *Pass) atomicWriteRecv(call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	kind, callee, _ := resolveCall(p.Pkg.Info, call)
	if kind != callStatic || callee.Pkg() == nil || callee.Pkg().Path() != "sync/atomic" || !atomicWrites[callee.Name()] {
		return nil
	}
	if s, ok := p.Pkg.Info.Selections[sel]; !ok || s.Kind() != types.MethodVal {
		return nil
	}
	return sel.X
}
