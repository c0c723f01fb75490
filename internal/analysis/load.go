package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one directory of the module, parsed and type-checked.
type Package struct {
	// Path is the import path: Module + "/" + the directory's
	// module-relative path (or just Module at the root).
	Path string
	// Dir is the absolute directory the files were read from.
	Dir string
	// Name is the package clause name (e.g. "stats", "main").
	Name string

	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// TypeErrors collects everything the type checker rejected. The
	// driver treats a non-empty list as a load failure: analyzing
	// code that does not compile yields unreliable findings.
	TypeErrors []error
}

// EnclosingFunc returns the name of the function declaration enclosing
// pos — "Name" for functions, "Type.Method" for methods — or "" at
// file scope. Diagnostics carry it so findings keep their identity as
// lines drift.
func (p *Package) EnclosingFunc(pos token.Pos) string {
	for _, file := range p.Files {
		if pos < file.Pos() || pos > file.End() {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || pos < fd.Pos() || pos > fd.End() {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) > 0 {
				recv := types.ExprString(fd.Recv.List[0].Type)
				recv = strings.TrimPrefix(recv, "*")
				if i := strings.IndexByte(recv, '['); i >= 0 {
					recv = recv[:i] // drop type parameters
				}
				name = recv + "." + name
			}
			return name
		}
	}
	return ""
}

// A Loader parses and type-checks packages of a single module. It
// resolves intra-module imports by recursing into the module tree and
// standard-library imports through go/importer's source importer, so
// the whole pipeline stays inside the standard library.
type Loader struct {
	// Root is the absolute path of the module root (the directory
	// holding go.mod).
	Root string
	// Module is the module path declared in go.mod.
	Module string
	// IncludeTests parses _test.go files of the package under test
	// into the package (external _test packages are not loaded).
	IncludeTests bool

	fset   *token.FileSet
	stdlib types.ImporterFrom
	cache  map[string]*Package // keyed by absolute dir
	state  map[string]int      // import-cycle detection
}

const (
	loadInProgress = 1
	loadDone       = 2
)

// NewLoader builds a Loader rooted at the module containing dir,
// reading the module path from go.mod.
func NewLoader(dir string) (*Loader, error) {
	root, err := FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	src, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("analysis: source importer unavailable")
	}
	return &Loader{
		Root:   root,
		Module: module,
		fset:   fset,
		stdlib: src,
		cache:  make(map[string]*Package),
		state:  make(map[string]int),
	}, nil
}

// FindModuleRoot walks up from dir to the nearest directory holding a
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
		d = parent
	}
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module declaration in %s", gomod)
}

// Load parses and type-checks every directory in dirs (absolute or
// root-relative paths), returning packages in deterministic order.
// Directories without non-test Go files are skipped silently so
// pattern expansion can be generous.
func (l *Loader) Load(dirs []string) ([]*Package, error) {
	var pkgs []*Package
	for _, dir := range dirs {
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(l.Root, dir)
		}
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// Universe returns every module package the loader has parsed and
// type-checked so far: the packages requested through Load plus every
// module dependency pulled in to resolve their imports (loadDir keeps
// full syntax trees for those too). This is the input the fact engine
// wants — facts must see a helper's body even when its package was
// not selected for reporting. Deterministic path order.
func (l *Loader) Universe() []*Package {
	var out []*Package
	for _, pkg := range l.cache {
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// importPath maps an absolute directory inside the module to its
// import path.
func (l *Loader) importPath(dir string) string {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil || rel == "." {
		return l.Module
	}
	return l.Module + "/" + filepath.ToSlash(rel)
}

// loadDir parses and type-checks one directory, returning nil (no
// error) when it contains no analyzable Go files.
func (l *Loader) loadDir(dir string) (*Package, error) {
	dir = filepath.Clean(dir)
	if pkg, ok := l.cache[dir]; ok {
		return pkg, nil
	}
	if l.state[dir] == loadInProgress {
		return nil, fmt.Errorf("analysis: import cycle through %s", l.importPath(dir))
	}
	l.state[dir] = loadInProgress
	defer func() { l.state[dir] = loadDone }()

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if !l.IncludeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		l.cache[dir] = nil
		return nil, nil
	}

	pkg := &Package{
		Path: l.importPath(dir),
		Dir:  dir,
		Fset: l.fset,
	}
	for _, name := range names {
		file, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		if pkg.Name == "" {
			pkg.Name = file.Name.Name
		}
		// External test packages (package foo_test) share the
		// directory; keep only the primary package's files.
		if file.Name.Name != pkg.Name {
			continue
		}
		pkg.Files = append(pkg.Files, file)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, err := conf.Check(pkg.Path, l.fset, pkg.Files, info)
	if err != nil && len(pkg.TypeErrors) == 0 {
		// Check reports the first error even when the Error callback
		// (which sees them all) is set; keep at least one.
		pkg.TypeErrors = append(pkg.TypeErrors, err)
	}
	pkg.Types = tpkg
	pkg.Info = info
	l.cache[dir] = pkg
	return pkg, nil
}

// Import implements types.Importer. Intra-module paths recurse into
// the loader; everything else is delegated to the source importer,
// which resolves the standard library from GOROOT/src.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.Root, 0)
}

// ImportFrom implements types.ImporterFrom.
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.Module), "/")
		pkg, err := l.loadDir(filepath.Join(l.Root, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("analysis: no Go files in %s", path)
		}
		if len(pkg.TypeErrors) > 0 {
			return nil, fmt.Errorf("analysis: dependency %s has type errors: %v", path, pkg.TypeErrors[0])
		}
		return pkg.Types, nil
	}
	return l.stdlib.ImportFrom(path, srcDir, mode)
}
