package analyze

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// The testonly pass finds the surface nobody ships: an exported
// function, method, type, var or const declared in the module's root
// package (the public API) or under its internal/ tree that no non-test
// code of the module uses. Such an identifier is either dead or a test
// helper living in production code; both are code to delete, unexport
// or move into a test file. The root package's callers are cmd/,
// examples/ and internal/, and its own _test.go files are test code.
//
// Its rules:
//   - the use index covers the whole module, whatever packages were
//     named, but not nested modules (bench/ has its own go.mod);
//   - _test.go files and the test-support packages in testCodePkgs
//     count as test code, so their uses do not count;
//   - a use inside the identifier's own declaration (a recursive call,
//     a method naming its receiver type) does not count;
//   - a method that satisfies an interface type the module's code
//     mentions — named or anonymous, declared in the module or in a
//     package it imports — counts as used, because a call through the
//     interface names the interface's method, not the concrete one.
//
// The same pass holds the knobs of a configuration to the same rule:
// an exported field of an exported struct type whose name ends in
// Config or Options is reported when no non-test code sets it. A set
// is a composite-literal key or positional element, an assignment or
// inc/dec to the field's selector (or to a selector, index or
// dereference below it), or &x.F. A write through a method's own
// receiver does not count (the applyDefaults pattern, or a type keeping
// its own state), nor does a default anywhere: a write to x.F under
// `if x.F == 0` (or `<= 0`, or `== nil`), as a constructor defaulting
// its config parameter makes. A field that carries a struct tag is
// exempt, because reflection decodes it.
//
// And it holds state to it: a field, exported or not, of a
// package-level struct type declared there is reported when no non-test
// code of the module reads it. Every use of the field is a read but two
// writes: an assignment, op= or inc/dec target (and a selector on such
// a target's path), and a composite-literal key. So &x.F, a method call
// on x.F and a selection promoted through an embedded field read it.
// Tagged, blank and embedded fields are exempt: reflection decodes a
// tagged field, and a type embeds another to take on its methods or
// its encoding, which no selector shows.

// testCodePkgs are the module-relative packages that hold test
// support only; they are neither reported nor counted as callers.
var testCodePkgs = []string{"internal/envtest", "internal/semtest"}

// useIndex is what the module's non-test code uses.
type useIndex struct {
	used map[string]bool // objKey of every object named outside its own declaration
	set  map[string]bool // fieldKey of every field set, defaults aside
	read map[string]bool // fieldKey of every field read
	// ifaces lists the method sets (name -> signature) of every
	// interface type the module's code mentions.
	ifaces []map[string]string
}

func runTestonly(p *Pass) {
	s := p.Suite
	if p.Pkg.Path != s.Module && !strings.HasPrefix(p.Pkg.Path, s.Module+"/internal/") || s.isTestCode(p.Pkg.Path) {
		return
	}
	idx, err := s.uses()
	if err != nil {
		if len(p.Files) > 0 {
			p.Reportf(p.Files[0].Package, "cannot index the module's uses: %v", err)
		}
		return
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			for _, id := range exportedNames(decl) {
				obj := p.Pkg.Info.Defs[id]
				if obj == nil || idx.used[objKey(obj)] || idx.satisfiesInterface(obj) {
					continue
				}
				p.Reportf(id.Pos(), "%s is exported, but no code outside tests uses it", objKey(obj))
			}
			for _, f := range fields(decl) {
				obj := p.Pkg.Info.Defs[f.name]
				if obj == nil {
					continue
				}
				key := fieldKey(s.Fset, obj)
				if isKnob(f) && !idx.set[key] {
					p.Reportf(f.name.Pos(), "%s.%s.%s is exported, but no code outside tests sets it",
						p.Pkg.Path, f.typ, f.name.Name)
				}
				if !idx.read[key] {
					p.Reportf(f.name.Pos(), "%s.%s.%s is a field, but no code outside tests reads it",
						p.Pkg.Path, f.typ, f.name.Name)
				}
			}
		}
	}
}

// A field is a named, untagged, non-blank field of a package-level
// struct type.
type field struct {
	typ  string
	name *ast.Ident
}

// isKnob reports whether f is a knob: an exported field of an exported
// *Config or *Options type.
func isKnob(f field) bool {
	return f.name.IsExported() && ast.IsExported(f.typ) &&
		(strings.HasSuffix(f.typ, "Config") || strings.HasSuffix(f.typ, "Options"))
}

// fields returns the fields decl declares.
func fields(decl ast.Decl) []field {
	gd, ok := decl.(*ast.GenDecl)
	if !ok {
		return nil
	}
	var out []field
	for _, spec := range gd.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			continue
		}
		for _, f := range st.Fields.List {
			if f.Tag != nil {
				continue
			}
			for _, name := range f.Names {
				if name.Name != "_" {
					out = append(out, field{ts.Name.Name, name})
				}
			}
		}
	}
	return out
}

// fieldKey names a struct field by its declaring position, which the
// loader's two type-checks of a package agree on; any other object has
// no key.
func fieldKey(fset *token.FileSet, obj types.Object) string {
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		return fset.Position(v.Pos()).String()
	}
	return ""
}

// addSets records in idx.set the fields decl sets. Two kinds of write
// do not count: one through the receiver of the enclosing method (the
// applyDefaults pattern, or a type keeping its own state), and a
// default anywhere, that is a write to x.F inside `if x.F == 0 { ... }`
// (or `<= 0`, or `== nil`), as a constructor defaulting its config
// parameter makes. Neither is a caller choosing a value.
func (idx *useIndex) addSets(fset *token.FileSet, info *types.Info, decl ast.Decl) {
	var recv types.Object
	if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil && len(fd.Recv.List[0].Names) > 0 {
		recv = info.Defs[fd.Recv.List[0].Names[0]]
	}
	defaults := map[ast.Expr]bool{} // the x.F written under `if x.F == 0`
	mark := func(obj types.Object) {
		if key := fieldKey(fset, obj); key != "" {
			idx.set[key] = true
		}
	}
	// target marks every field on the selector path e writes through,
	// unless the receiver roots the path.
	target := func(e ast.Expr) {
		sels, root := writePath(e)
		if id, ok := root.(*ast.Ident); ok && recv != nil && info.Uses[id] == recv {
			return
		}
		for _, x := range sels {
			if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				mark(sel.Obj())
			}
		}
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			// An element of a slice or map of pointers written {...}
			// has the pointer type.
			t := info.TypeOf(n).Underlying()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem().Underlying()
			}
			st, _ := t.(*types.Struct)
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok {
						mark(info.Uses[key])
					}
				} else if st != nil && i < st.NumFields() {
					mark(st.Field(i))
				}
			}
		case *ast.IfStmt:
			if f := unsetTest(info, n.Cond); f != "" {
				ast.Inspect(n.Body, func(m ast.Node) bool {
					if as, ok := m.(*ast.AssignStmt); ok {
						for _, lhs := range as.Lhs {
							defaults[lhs] = defaults[lhs] || types.ExprString(lhs) == f
						}
					}
					return true
				})
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if !defaults[lhs] {
					target(lhs)
				}
			}
		case *ast.IncDecStmt:
			target(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				target(n.X)
			}
		}
		return true
	})
}

// addReads records in idx.read the fields decl reads: every use of a
// field but a write target's selectors and a composite-literal key.
func (idx *useIndex) addReads(fset *token.FileSet, info *types.Info, decl ast.Decl) {
	writes := map[*ast.Ident]bool{}
	target := func(e ast.Expr) {
		sels, _ := writePath(e)
		for _, x := range sels {
			writes[x.Sel] = true
		}
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				target(lhs)
			}
		case *ast.IncDecStmt:
			target(n.X)
		case *ast.KeyValueExpr:
			if key, ok := n.Key.(*ast.Ident); ok {
				writes[key] = true
			}
		}
		return true
	})
	mark := func(obj types.Object) {
		if key := fieldKey(fset, obj); key != "" {
			idx.read[key] = true
		}
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && !writes[id] {
			mark(info.Uses[id])
		}
		return true
	})
}

// writePath walks the target of a write down through selectors,
// indexes, dereferences and parentheses, and returns the selectors on
// the way and the expression at the root.
func writePath(e ast.Expr) (sels []*ast.SelectorExpr, root ast.Expr) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			sels = append(sels, x)
			e = x.X
		default:
			return sels, e
		}
	}
}

// unsetTest returns the selector cond tests for being unset
// (`x.F == nil`, `x.F == ""`, `x.F <= 0`), or "".
func unsetTest(info *types.Info, cond ast.Expr) string {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || be.Op != token.EQL && be.Op != token.LEQ && be.Op != token.LSS {
		return ""
	}
	sel, ok := ast.Unparen(be.X).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	tv := info.Types[be.Y]
	v := tv.Value
	if tv.IsNil() || v != nil && (v.Kind() == constant.String && constant.StringVal(v) == "" ||
		(v.Kind() == constant.Int || v.Kind() == constant.Float) && constant.Sign(v) == 0) {
		return types.ExprString(sel)
	}
	return ""
}

// exportedNames returns the exported identifiers decl declares at
// package level (methods included).
func exportedNames(decl ast.Decl) []*ast.Ident {
	var out []*ast.Ident
	switch decl := decl.(type) {
	case *ast.FuncDecl:
		if decl.Name.IsExported() {
			out = append(out, decl.Name)
		}
	case *ast.GenDecl:
		for _, spec := range decl.Specs {
			switch spec := spec.(type) {
			case *ast.TypeSpec:
				if spec.Name.IsExported() {
					out = append(out, spec.Name)
				}
			case *ast.ValueSpec:
				for _, name := range spec.Names {
					if name.IsExported() {
						out = append(out, name)
					}
				}
			}
		}
	}
	return out
}

// objKey names a package-level object or a method stably across the
// loader's two type-checks of a package (with and without its
// in-package tests): "path.Name" or "path.Recv.Name". Fields and
// local objects have no key.
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return ""
			}
			return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// satisfiesInterface reports whether obj is a method of a type that
// implements an interface holding a method of the same name and
// signature. Signatures compare as strings qualified by package path,
// so the loader's two type-checks of a package agree.
func (idx *useIndex) satisfiesInterface(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	have := methodSigs(types.NewMethodSet(types.NewPointer(t)))
	sig := have[fn.Name()]
	for _, iface := range idx.ifaces {
		if iface[fn.Name()] != sig {
			continue
		}
		all := true
		for name, want := range iface {
			if have[name] != want {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

func methodSigs(ms *types.MethodSet) map[string]string {
	out := make(map[string]string, ms.Len())
	for i := 0; i < ms.Len(); i++ {
		fn := ms.At(i).Obj()
		out[fn.Name()] = sigString(fn.Type().(*types.Signature))
	}
	return out
}

// sigString renders sig's parameter and result types, without names,
// qualified by package path.
func sigString(sig *types.Signature) string {
	qual := func(p *types.Package) string { return p.Path() }
	var b strings.Builder
	for i, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteString([]string{"(", ") ("}[i])
		for j := 0; j < tuple.Len(); j++ {
			b.WriteString(types.TypeString(tuple.At(j).Type(), qual) + ",")
		}
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String() + ")"
}

// isTestCode reports whether the package at path is test support.
func (s *Suite) isTestCode(path string) bool {
	for _, rel := range testCodePkgs {
		if path == s.Module+"/"+rel {
			return true
		}
	}
	return false
}

// uses builds, once per suite, the index of what the module's non-test
// code uses, loading every package of the module to do so.
func (s *Suite) uses() (*useIndex, error) {
	if s.useIdx != nil {
		return s.useIdx, nil
	}
	dirs, err := s.moduleDirs()
	if err != nil {
		return nil, err
	}
	idx := &useIndex{used: map[string]bool{}, set: map[string]bool{}, read: map[string]bool{}}
	ifaces := map[string]map[string]string{} // by the interface's text
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || it.NumMethods() == 0 {
			return
		}
		key := types.TypeString(it, func(p *types.Package) string { return p.Path() })
		if ifaces[key] == nil {
			ifaces[key] = methodSigs(types.NewMethodSet(t))
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	imported := map[*types.Package]bool{}
	var addImports func(*types.Package)
	addImports = func(tp *types.Package) {
		for _, dep := range tp.Imports() {
			if imported[dep] {
				continue
			}
			imported[dep] = true
			addImports(dep)
			if s.isModulePath(dep.Path()) {
				continue
			}
			scope := dep.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
					addIface(tn.Type())
				}
			}
		}
	}
	for _, dir := range dirs {
		path, err := s.importPathFor(dir)
		if err != nil {
			return nil, err
		}
		if s.isTestCode(path) {
			continue
		}
		pkg, err := s.loadPackage(path)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			continue
		}
		addImports(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
		for _, obj := range pkg.Info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				idx.addSets(s.Fset, pkg.Info, decl)
				idx.addReads(s.Fset, pkg.Info, decl)
				owners := declOwners(pkg.Info, decl)
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if key := objKey(pkg.Info.Uses[id]); key != "" && !owners[key] {
							idx.used[key] = true
						}
					}
					return true
				})
			}
		}
	}
	for _, sigs := range ifaces {
		idx.ifaces = append(idx.ifaces, sigs)
	}
	s.useIdx = idx
	return idx, nil
}

// declOwners returns the keys of what decl declares — and, for a
// method, its receiver type — whose uses inside decl do not count.
func declOwners(info *types.Info, decl ast.Decl) map[string]bool {
	owners := map[string]bool{}
	switch decl := decl.(type) {
	case *ast.FuncDecl:
		fn, ok := info.Defs[decl.Name].(*types.Func)
		if !ok {
			break
		}
		owners[objKey(fn)] = true
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			key := objKey(fn)
			owners[key[:strings.LastIndexByte(key, '.')]] = true
		}
	case *ast.GenDecl:
		for _, spec := range decl.Specs {
			switch spec := spec.(type) {
			case *ast.TypeSpec:
				owners[objKey(info.Defs[spec.Name])] = true
			case *ast.ValueSpec:
				for _, name := range spec.Names {
					owners[objKey(info.Defs[name])] = true
				}
			}
		}
	}
	return owners
}

// moduleDirs lists the directories of the module's own packages: the
// tree under Root minus testdata, vendor, hidden and underscore
// directories and nested modules.
func (s *Suite) moduleDirs() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(s.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != s.Root {
			if skipDir(d.Name()) {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}
