package analyze

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Directives are the progmp invariant annotations a declaration can
// carry. They are written like compiler directives — a // comment
// with no space before the word — in the doc comment of a FuncDecl,
// an interface method, or a type declaration:
//
//	//progmp:hotpath        function must be allocation-free
//	//progmp:deterministic  function must avoid nondeterminism sources
//	//progmp:epochshared    type is shared state lock-free readers copy
//	//progmp:publish        function is a write section (may write
//	//                      epochshared state)
//
// On an interface method the directive is a proof obligation for
// every implementation and a grant for callers: a hot path may call
// through the interface, and each concrete implementation reachable
// by the analyzer must itself be annotated.
type Directives struct {
	Hotpath       bool
	Deterministic bool
	EpochShared   bool
	Publish       bool
}

func (d Directives) any() bool {
	return d.Hotpath || d.Deterministic || d.EpochShared || d.Publish
}

func parseDirectives(groups ...*ast.CommentGroup) Directives {
	var d Directives
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			switch strings.TrimSpace(strings.TrimPrefix(c.Text, "//progmp:")) {
			case c.Text: // no prefix
			case "hotpath":
				d.Hotpath = true
			case "deterministic":
				d.Deterministic = true
			case "epochshared":
				d.EpochShared = true
			case "publish":
				d.Publish = true
			}
		}
	}
	return d
}

// collectDirectives records the directive facts of one type-checked
// package into the suite-wide maps. It runs for every package the
// suite loads — including pure dependencies — so a target package's
// passes can see annotations on the packages it calls into.
func (s *Suite) collectDirectives(pkg *Package) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				d := parseDirectives(decl.Doc)
				if !d.any() {
					continue
				}
				if fn, ok := pkg.Info.Defs[decl.Name].(*types.Func); ok {
					s.funcDirs[fn] = d
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					d := parseDirectives(decl.Doc, ts.Doc)
					if d.any() {
						if tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName); ok {
							s.typeDirs[tn] = d
						}
					}
					iface, ok := ts.Type.(*ast.InterfaceType)
					if !ok {
						continue
					}
					for _, method := range iface.Methods.List {
						md := parseDirectives(method.Doc, method.Comment)
						if !md.any() {
							continue
						}
						for _, name := range method.Names {
							if fn, ok := pkg.Info.Defs[name].(*types.Func); ok {
								s.funcDirs[fn] = md
							}
						}
					}
				}
			}
		}
	}
}

// FuncDirectives returns the directives on fn, if any.
func (s *Suite) FuncDirectives(fn *types.Func) Directives {
	return s.funcDirs[fn]
}

// TypeDirectives returns the directives on the named type, if any.
func (s *Suite) TypeDirectives(tn *types.TypeName) Directives {
	return s.typeDirs[tn]
}

// A suppression is one //progmp:ignore comment:
//
//	//progmp:ignore <pass>[,<pass>...] [reason]
//	//progmp:ignore * [reason]
//
// It covers diagnostics reported on its own line and on the following
// line (for standalone comments above a statement).
type suppression struct {
	pos    token.Position
	passes []string // "*" names every pass
	// used: the pass now running over the package found something
	// here to suppress (Suite.Run clears it before each pass).
	used bool
}

// collectSuppressions lists the //progmp:ignore comments of files.
func collectSuppressions(fset *token.FileSet, files []*ast.File) []*suppression {
	var out []*suppression
	for _, f := range files {
		for _, g := range f.Comments {
			for _, c := range g.List {
				rest, ok := strings.CutPrefix(c.Text, "//progmp:ignore")
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				out = append(out, &suppression{
					pos:    fset.Position(c.Pos()),
					passes: strings.Split(fields[0], ","),
				})
			}
		}
	}
	return out
}

// suppressed reports whether a suppression for pass covers pos, and
// marks every one that does as used.
func (p *Package) suppressed(pass string, pos token.Position) bool {
	covered := false
	for _, s := range p.suppress {
		if s.pos.Filename != pos.Filename || (s.pos.Line != pos.Line && s.pos.Line+1 != pos.Line) {
			continue
		}
		for _, name := range s.passes {
			if name == pass || name == "*" {
				s.used, covered = true, true
			}
		}
	}
	return covered
}

// suppressedAt reports whether a suppression for pass covers the
// given source position — used by traversal passes to prune both the
// diagnostic and the walk below a vouched-for call site.
func (p *Pass) suppressedAt(pos token.Pos) bool {
	return p.Pkg.suppressed(p.Analyzer.Name, p.Suite.Fset.Position(pos))
}

// reportStale reports, as findings of the pass that just ran, the
// suppressions naming it that suppressed nothing: the code they vouched
// for is gone or no longer needs the waiver, and a waiver nobody
// answers for would silently cover the next construct written there.
func (p *Pass) reportStale() {
	inspected := map[string]bool{}
	for _, f := range p.Files {
		inspected[p.Pkg.fileName(f)] = true
	}
	for _, s := range p.Pkg.suppress {
		for _, name := range s.passes {
			if name == p.Analyzer.Name && inspected[s.pos.Filename] && !s.used {
				*p.diags = append(*p.diags, Diagnostic{
					Pos:     s.pos,
					Pass:    name,
					Message: fmt.Sprintf("//progmp:ignore %s suppresses nothing: delete it", name),
				})
			}
		}
	}
}
