package analyze

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// hotpathAllowPkgs are packages a hot path may call into freely:
// every exported function is allocation-free.
var hotpathAllowPkgs = map[string]bool{
	"sync/atomic": true,
	"math/bits":   true,
}

// hotpathAllowFuncs are individually vetted allocation-free stdlib
// functions and methods hot paths are allowed to reach.
var hotpathAllowFuncs = map[string]bool{
	"time.Now":                     true,
	"time.Since":                   true,
	"(time.Time).Sub":              true,
	"(time.Time).UnixNano":         true,
	"(time.Duration).Nanoseconds":  true,
	"(time.Duration).Microseconds": true,
	"(time.Duration).Milliseconds": true,
	"(time.Duration).Seconds":      true,
	"(*math/rand.Rand).Float64":    true,
	"(*math/rand.Rand).Int63n":     true,
	"(*sync.Pool).Get":             true,
	"(*sync.Pool).Put":             true,
	"(*sync.Mutex).Lock":           true,
	"(*sync.Mutex).Unlock":         true,
	"(*sync.RWMutex).RLock":        true,
	"(*sync.RWMutex).RUnlock":      true,
	"(*sync.RWMutex).Lock":         true,
	"(*sync.RWMutex).Unlock":       true,
	// A seqlock reader yields while a write section is open; the
	// yield parks nothing on the heap.
	"runtime.Gosched": true,
}

// runHotpath proves that every //progmp:hotpath function in the
// package contains no allocation-inducing construct, walking
// transitively into same-package callees. Cross-package calls must
// target a function that is itself annotated, an allowlisted stdlib
// function, or carry a //progmp:ignore suppression explaining why the
// call is outside the zero-alloc contract.
func runHotpath(p *Pass) {
	t := newTraversal(p)
	for _, root := range t.roots(func(d Directives) bool { return d.Hotpath }) {
		h := &hotpathWalk{t: t, root: root}
		h.checkFunc(root)
	}
}

type hotpathWalk struct {
	t    *traversal
	root *types.Func
}

func (h *hotpathWalk) reportf(pos token.Pos, fn *types.Func, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if fn != h.root {
		msg += fmt.Sprintf(" (hot path via %s)", h.root.Name())
	}
	h.t.pass.Reportf(pos, "%s", msg)
}

func (h *hotpathWalk) checkFunc(fn *types.Func) {
	if h.t.visited[fn] {
		return
	}
	h.t.visited[fn] = true
	decl := h.t.decls[fn]
	if decl == nil {
		return
	}
	h.checkBody(fn, decl.Body)
}

// checkBody walks one function body. Function literals that are
// invoked on the spot (called or deferred) are walked inline as part
// of the enclosing function; a literal used as a value is a closure
// allocation and is reported instead of walked.
func (h *hotpathWalk) checkBody(fn *types.Func, body *ast.BlockStmt) {
	info := h.t.pass.Pkg.Info
	inline := map[*ast.FuncLit]bool{} // literals invoked on the spot
	funs := map[ast.Expr]bool{}       // expressions in call-operand position
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if inline[n] {
				return true
			}
			h.reportf(n.Pos(), fn, "function literal escapes: closure allocates")
			return false
		case *ast.GoStmt:
			h.reportf(n.Pos(), fn, "go statement allocates a goroutine")
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				inline[lit] = true // already reported; don't re-flag as escape
			}
			funs[ast.Unparen(n.Call.Fun)] = true
			return true
		case *ast.DeferStmt:
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				inline[lit] = true
			}
			funs[ast.Unparen(n.Call.Fun)] = true
			return true
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok {
				inline[lit] = true
			}
			// A literal passed directly as a call argument is the
			// non-escaping callback pattern (Queue.All et al.): its
			// body is checked inline here, and the invocation inside
			// the callee is vouched for at the callee. Literals that
			// are stored are still reported as escapes.
			for _, arg := range n.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					inline[lit] = true
				}
			}
			funs[ast.Unparen(n.Fun)] = true
			h.checkCall(fn, n)
			return true
		case *ast.SelectorExpr:
			if funs[n] {
				return true
			}
			if sel, ok := info.Selections[n]; ok && sel.Kind() == types.MethodVal {
				h.reportf(n.Pos(), fn, "method value %s.%s allocates a closure", types.ExprString(n.X), n.Sel.Name)
			}
			return true
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					h.reportf(n.Pos(), fn, "address of composite literal may be heap-allocated")
					return false
				}
			}
			return true
		case *ast.CompositeLit:
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Map:
				h.reportf(n.Pos(), fn, "map literal allocates")
			case *types.Slice:
				h.reportf(n.Pos(), fn, "slice literal allocates")
			}
			return true
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(info.TypeOf(n)) && info.Types[n].Value == nil {
				h.reportf(n.Pos(), fn, "non-constant string concatenation allocates")
			}
			return true
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				h.checkMapWrite(fn, lhs)
			}
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(info.TypeOf(n.Lhs[0])) {
				h.reportf(n.Pos(), fn, "string += allocates")
			}
			h.checkAssignConversions(fn, n)
			return true
		case *ast.IncDecStmt:
			h.checkMapWrite(fn, n.X)
			return true
		case *ast.ReturnStmt:
			h.checkReturnConversions(fn, n)
			return true
		}
		return true
	})
}

func (h *hotpathWalk) checkMapWrite(fn *types.Func, lhs ast.Expr) {
	idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return
	}
	if _, ok := h.t.pass.Pkg.Info.TypeOf(idx.X).Underlying().(*types.Map); ok {
		h.reportf(lhs.Pos(), fn, "map write may rehash and allocate")
	}
}

// checkCall handles builtins, conversions, implicit interface
// conversions at argument positions, variadic slices, and callee
// admissibility (annotated / allowlisted / same-package traversal).
func (h *hotpathWalk) checkCall(fn *types.Func, call *ast.CallExpr) {
	p := h.t.pass
	info := p.Pkg.Info
	if p.suppressedAt(call.Pos()) {
		return // vouched-for call: skip both diagnostic and traversal
	}
	kind, callee, builtin := resolveCall(info, call)
	switch kind {
	case callBuiltin:
		switch builtin.Name() {
		case "append":
			h.reportf(call.Pos(), fn, "append may grow the backing array")
		case "make":
			h.reportf(call.Pos(), fn, "make allocates")
		case "new":
			h.reportf(call.Pos(), fn, "new allocates")
		case "panic":
			h.reportf(call.Pos(), fn, "panic allocates and unwinds")
		}
		return
	case callConversion:
		h.checkConversion(fn, call)
		return
	}

	// Implicit interface conversions and the variadic slice.
	if sigT, ok := info.TypeOf(call.Fun).(*types.Signature); ok {
		h.checkArgConversions(fn, call, sigT)
	}

	switch kind {
	case callDynamic:
		if _, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
			return // literal invoked on the spot: its body is walked inline
		}
		h.reportf(call.Pos(), fn, "dynamic call through a function value cannot be proven allocation-free")
	case callInterface:
		if !p.Suite.FuncDirectives(callee).Hotpath {
			h.reportf(call.Pos(), fn, "interface method %s is not annotated //progmp:hotpath", fullName(callee))
		}
	case callStatic:
		h.checkStaticCallee(fn, call, callee)
	}
}

func (h *hotpathWalk) checkStaticCallee(fn *types.Func, call *ast.CallExpr, callee *types.Func) {
	p := h.t.pass
	if p.Suite.FuncDirectives(callee).Hotpath {
		return // a root of its own hotpath traversal
	}
	if callee.Pkg() == p.Pkg.Types {
		if _, ok := h.t.decls[callee]; ok {
			h.checkFunc(callee)
			return
		}
		h.reportf(call.Pos(), fn, "call to %s has no body to analyze", callee.Name())
		return
	}
	pkgPath := ""
	if callee.Pkg() != nil {
		pkgPath = callee.Pkg().Path()
	}
	if hotpathAllowPkgs[pkgPath] || hotpathAllowFuncs[fullName(callee)] {
		return
	}
	h.reportf(call.Pos(), fn, "call to %s crosses a package boundary without //progmp:hotpath", fullName(callee))
}

// checkConversion flags explicit conversions that allocate: string
// materialization and boxing into interfaces.
func (h *hotpathWalk) checkConversion(fn *types.Func, call *ast.CallExpr) {
	info := h.t.pass.Pkg.Info
	if len(call.Args) != 1 {
		return
	}
	to := info.TypeOf(call.Fun)
	from := info.TypeOf(call.Args[0])
	if to == nil || from == nil {
		return
	}
	switch {
	case isString(to) && !isString(from) && info.Types[call].Value == nil:
		h.reportf(call.Pos(), fn, "conversion to string allocates")
	case isByteOrRuneSlice(to) && isString(from):
		h.reportf(call.Pos(), fn, "string to slice conversion allocates")
	default:
		h.checkIfaceConv(fn, call.Pos(), to, from, info.Types[call.Args[0]])
	}
}

func (h *hotpathWalk) checkArgConversions(fn *types.Func, call *ast.CallExpr, sig *types.Signature) {
	info := h.t.pass.Pkg.Info
	params := sig.Params()
	n := params.Len()
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case sig.Variadic() && i >= n-1:
			if call.Ellipsis != token.NoPos {
				continue // spread of an existing slice
			}
			param = params.At(n - 1).Type().(*types.Slice).Elem()
		case i < n:
			param = params.At(i).Type()
		default:
			continue
		}
		h.checkIfaceConv(fn, arg.Pos(), param, info.TypeOf(arg), info.Types[arg])
	}
	if sig.Variadic() && call.Ellipsis == token.NoPos && len(call.Args) >= n {
		h.reportf(call.Pos(), fn, "variadic call allocates the argument slice")
	}
}

func (h *hotpathWalk) checkAssignConversions(fn *types.Func, n *ast.AssignStmt) {
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	info := h.t.pass.Pkg.Info
	for i, rhs := range n.Rhs {
		h.checkIfaceConv(fn, rhs.Pos(), info.TypeOf(n.Lhs[i]), info.TypeOf(rhs), info.Types[rhs])
	}
}

func (h *hotpathWalk) checkReturnConversions(fn *types.Func, ret *ast.ReturnStmt) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() != len(ret.Results) {
		return
	}
	info := h.t.pass.Pkg.Info
	for i, res := range ret.Results {
		h.checkIfaceConv(fn, res.Pos(), sig.Results().At(i).Type(), info.TypeOf(res), info.Types[res])
	}
}

// checkIfaceConv reports a conversion of a non-pointer-shaped value
// into an interface — the boxing allocation.
func (h *hotpathWalk) checkIfaceConv(fn *types.Func, pos token.Pos, to, from types.Type, fromTV types.TypeAndValue) {
	if to == nil || from == nil {
		return
	}
	if !types.IsInterface(to) || types.IsInterface(from) {
		return
	}
	if fromTV.IsNil() || pointerShaped(from) {
		return
	}
	h.reportf(pos, fn, "conversion of %s to %s boxes the value (allocates)", from, to)
}

// pointerShaped reports whether values of t are represented as a
// single pointer word, so interface conversion stores them directly
// without boxing.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune)
}

// describe renders a function for messages without the module prefix
// noise.
func describe(fn *types.Func) string {
	return strings.ReplaceAll(fullName(fn), "progmp/internal/", "")
}
