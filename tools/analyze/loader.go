package analyze

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Suite owns the file set, the type-checked packages and the
// directive facts collected across every package it has loaded.
// Facts are keyed by *types.Func / *types.TypeName, so the loader
// guarantees object identity: each module-internal package is
// type-checked exactly once and shared between importers.
type Suite struct {
	Fset   *token.FileSet
	Module string // module path from go.mod
	Root   string // absolute module root directory

	std types.Importer // source importer for GOROOT packages
	// pkgs caches the pure (test-free) variant of each package —
	// what other packages see when they import it, exactly as the
	// compiler would. targets caches the analysis variant, which
	// additionally includes in-package _test.go files; keeping the
	// two apart avoids the import cycles test files would otherwise
	// introduce.
	pkgs     map[string]*Package
	targets  map[string]*Package
	loading  map[string]bool
	funcDirs map[*types.Func]Directives
	typeDirs map[*types.TypeName]Directives
	useIdx   *useIndex // built by the testonly pass on first use
}

// A Package is one type-checked package (primary files plus
// in-package _test.go files; an external foo_test package is loaded
// as its own Package with ExternalTest set).
type Package struct {
	Path         string
	Dir          string
	Files        []*ast.File
	Types        *types.Package
	Info         *types.Info
	ExternalTest bool

	fset *token.FileSet
	// suppress lists the package's //progmp:ignore comments.
	suppress []*suppression
}

func (p *Package) fileName(f *ast.File) string {
	return p.fset.Position(f.Package).Filename
}

// NewSuite creates a Suite rooted at the module containing dir.
func NewSuite(dir string) (*Suite, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("no go.mod found above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	module := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			module = strings.TrimSpace(rest)
			break
		}
	}
	if module == "" {
		return nil, fmt.Errorf("no module directive in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	return &Suite{
		Fset:     fset,
		Module:   module,
		Root:     root,
		std:      importer.ForCompiler(fset, "source", nil),
		pkgs:     map[string]*Package{},
		targets:  map[string]*Package{},
		loading:  map[string]bool{},
		funcDirs: map[*types.Func]Directives{},
		typeDirs: map[*types.TypeName]Directives{},
	}, nil
}

// Load resolves patterns ("./...", directories, import paths) to
// packages and type-checks them. Each directory yields its primary
// package and, when present, the external _test package.
func (s *Suite) Load(patterns ...string) ([]*Package, error) {
	dirs, err := s.expandPatterns(patterns)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, dir := range dirs {
		path, err := s.importPathFor(dir)
		if err != nil {
			return nil, err
		}
		pkg, err := s.loadTarget(path)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			out = append(out, pkg)
		}
		xtest, err := s.loadExternalTest(path, dir)
		if err != nil {
			return nil, err
		}
		if xtest != nil {
			out = append(out, xtest)
		}
	}
	return out, nil
}

// expandPatterns turns CLI arguments into module-relative directories
// holding Go files. "dir/..." walks recursively, skipping testdata,
// vendor, and hidden/underscore directories — same semantics the old
// tools/lint had.
func (s *Suite) expandPatterns(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if hasGoFiles(dir) && !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "" || pat == "." {
				pat = s.Root
			}
		}
		if strings.HasPrefix(pat, s.Module+"/") || pat == s.Module {
			pat = filepath.Join(s.Root, strings.TrimPrefix(pat, s.Module))
		}
		if !filepath.IsAbs(pat) {
			abs, err := filepath.Abs(pat)
			if err != nil {
				return nil, err
			}
			pat = abs
		}
		info, err := os.Stat(pat)
		if err != nil {
			return nil, fmt.Errorf("pattern %q: %w", pat, err)
		}
		if !info.IsDir() {
			return nil, fmt.Errorf("pattern %q is not a directory", pat)
		}
		if !recursive {
			add(pat)
			continue
		}
		err = filepath.WalkDir(pat, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			if path != pat && skipDir(d.Name()) {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// skipDir reports whether a walk skips the directory named name.
func skipDir(name string) bool {
	return strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
		name == "testdata" || name == "vendor"
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

func (s *Suite) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(s.Root, dir)
	if err != nil {
		return "", err
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("directory %s is outside module %s", dir, s.Root)
	}
	if rel == "." {
		return s.Module, nil
	}
	return s.Module + "/" + filepath.ToSlash(rel), nil
}

func (s *Suite) dirForImportPath(path string) string {
	if path == s.Module {
		return s.Root
	}
	return filepath.Join(s.Root, filepath.FromSlash(strings.TrimPrefix(path, s.Module+"/")))
}

func (s *Suite) isModulePath(path string) bool {
	return path == s.Module || strings.HasPrefix(path, s.Module+"/")
}

// Import implements types.Importer: module-internal packages are
// loaded (and cached) by the suite itself; everything else is
// type-checked from GOROOT source by the stdlib source importer.
// The suite never sees third-party imports — the module has none,
// by the offline-build constraint.
func (s *Suite) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if s.isModulePath(path) {
		pkg, err := s.loadPackage(path)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("no Go files in %s", path)
		}
		return pkg.Types, nil
	}
	return s.std.Import(path)
}

// xtestImporter is the importer of an external foo_test package: as
// with the go tool, its import of foo sees foo's in-package _test.go
// files too, so exported test helpers declared there resolve.
type xtestImporter struct {
	*Suite
	under string // foo's import path
}

func (im xtestImporter) Import(path string) (*types.Package, error) {
	if path != im.under {
		return im.Suite.Import(path)
	}
	pkg, err := im.loadTarget(path)
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("no Go files in %s", path)
	}
	return pkg.Types, nil
}

// loadPackage type-checks the pure variant of the package at the
// import path — non-test files only, the view importers get. Returns
// nil when the directory has no buildable non-test files.
func (s *Suite) loadPackage(path string) (*Package, error) {
	if pkg, ok := s.pkgs[path]; ok {
		return pkg, nil
	}
	if s.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	s.loading[path] = true
	defer delete(s.loading, path)

	dir := s.dirForImportPath(path)
	primary, _, _, err := s.splitDir(dir)
	if err != nil {
		return nil, err
	}
	if len(primary) == 0 {
		s.pkgs[path] = nil
		return nil, nil
	}
	pkg, err := s.check(path, dir, primary, false)
	if err != nil {
		return nil, err
	}
	s.pkgs[path] = pkg
	return pkg, nil
}

// loadTarget type-checks the analysis variant of the package: the
// pure files plus in-package _test.go files. When the package has no
// in-package tests this is the pure variant itself.
func (s *Suite) loadTarget(path string) (*Package, error) {
	if pkg, ok := s.targets[path]; ok {
		return pkg, nil
	}
	dir := s.dirForImportPath(path)
	primary, intest, _, err := s.splitDir(dir)
	if err != nil {
		return nil, err
	}
	if len(intest) == 0 || len(primary) == 0 {
		pkg, err := s.loadPackage(path)
		if err != nil {
			return nil, err
		}
		s.targets[path] = pkg
		return pkg, nil
	}
	// Make sure the pure variant exists first: imports from other
	// packages (including this package's own test files' transitive
	// imports) must resolve to it, not to this test-inclusive check.
	if _, err := s.loadPackage(path); err != nil {
		return nil, err
	}
	pkg, err := s.check(path, dir, append(append([]string{}, primary...), intest...), false)
	if err != nil {
		return nil, err
	}
	s.targets[path] = pkg
	return pkg, nil
}

// loadExternalTest type-checks the foo_test package of a directory,
// if any.
func (s *Suite) loadExternalTest(path, dir string) (*Package, error) {
	key := path + "_test"
	if pkg, ok := s.pkgs[key]; ok {
		return pkg, nil
	}
	_, _, xtest, err := s.splitDir(dir)
	if err != nil {
		return nil, err
	}
	if len(xtest) == 0 {
		s.pkgs[key] = nil
		return nil, nil
	}
	pkg, err := s.check(key, dir, xtest, true)
	if err != nil {
		return nil, err
	}
	s.pkgs[key] = pkg
	return pkg, nil
}

// splitDir lists the buildable files of dir, split into the pure
// package, its in-package _test.go files, and the external test
// package. Build constraints (//go:build, _GOOS suffixes) are
// honored via go/build, matching what the compiler would select.
func (s *Suite) splitDir(dir string) (primary, intest, xtest []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	ctx := build.Default
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		match, err := ctx.MatchFile(dir, name)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s/%s: %w", dir, name, err)
		}
		if match {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var primaryName string
	for _, name := range names {
		full := filepath.Join(dir, name)
		pkgName, err := packageClause(full)
		if err != nil {
			return nil, nil, nil, err
		}
		isTest := strings.HasSuffix(name, "_test.go")
		if isTest && strings.HasSuffix(pkgName, "_test") {
			xtest = append(xtest, full)
			continue
		}
		if primaryName == "" {
			primaryName = pkgName
		} else if pkgName != primaryName {
			return nil, nil, nil, fmt.Errorf("%s: conflicting package names %s and %s", dir, primaryName, pkgName)
		}
		if isTest {
			intest = append(intest, full)
		} else {
			primary = append(primary, full)
		}
	}
	return primary, intest, xtest, nil
}

func packageClause(file string) (string, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, parser.PackageClauseOnly)
	if err != nil {
		return "", err
	}
	return f.Name.Name, nil
}

func (s *Suite) check(path, dir string, filenames []string, xtest bool) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(s.Fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return s.checkFiles(path, dir, files, xtest)
}

// CheckSource type-checks a synthetic package built from in-memory
// sources (filename -> source). Used by pass tests to analyze
// fixtures without touching the repository tree; fixtures may import
// module-internal packages.
func (s *Suite) CheckSource(path string, sources map[string]string) (*Package, error) {
	var names []string
	for name := range sources {
		names = append(names, name)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(s.Fset, name, sources[name], parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, err := s.checkFiles(path, s.Root, files, false)
	if err != nil {
		return nil, err
	}
	s.pkgs[path] = pkg
	return pkg, nil
}

func (s *Suite) checkFiles(path, dir string, files []*ast.File, xtest bool) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	var errs []error
	var imp types.Importer = s
	if xtest {
		imp = xtestImporter{s, strings.TrimSuffix(path, "_test")}
	}
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			errs = append(errs, err)
		},
	}
	tpkg, _ := conf.Check(path, s.Fset, files, info)
	if len(errs) > 0 {
		msgs := make([]string, 0, len(errs))
		for i, e := range errs {
			if i == 8 {
				msgs = append(msgs, fmt.Sprintf("... and %d more", len(errs)-i))
				break
			}
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("type-checking %s:\n\t%s", path, strings.Join(msgs, "\n\t"))
	}
	pkg := &Package{
		Path:         path,
		Dir:          dir,
		Files:        files,
		Types:        tpkg,
		Info:         info,
		ExternalTest: xtest,
		fset:         s.Fset,
	}
	s.collectDirectives(pkg)
	pkg.suppress = collectSuppressions(s.Fset, files)
	return pkg, nil
}
