package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one parsed, type-checked unit of analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Src maps filename to source bytes; the suppression scanner needs
	// raw text to tell own-line directives from trailing ones.
	Src map[string][]byte
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// A loader resolves imports three ways, in order: fixture directories
// under srcRoot (linttest mode), already-checked packages, and compiler
// export data located via `go list -export`. Only the standard library
// and the host module are ever consulted — the suite adds no
// dependencies. Loading is sequential; in linttest mode a fixture import
// re-enters checkDir from inside types.Config.Check.
type loader struct {
	fset      *token.FileSet
	moduleDir string            // where go list runs
	srcRoot   string            // fixture root ("" outside linttest)
	exports   map[string]string // import path -> export data file
	checked   map[string]*Package
	gcImp     types.Importer
	listed    map[string]bool // import paths already asked of go list
}

func newLoader(moduleDir, srcRoot string) *loader {
	l := &loader{
		fset:      token.NewFileSet(),
		moduleDir: moduleDir,
		srcRoot:   srcRoot,
		exports:   map[string]string{},
		checked:   map[string]*Package{},
		listed:    map[string]bool{},
	}
	l.gcImp = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := l.exports[path]
		if !ok {
			// Lazy path: a fixture imported something go list has not
			// described yet (linttest mode only).
			if _, err := l.goList(path); err != nil {
				return nil, err
			}
			if f, ok = l.exports[path]; !ok {
				return nil, fmt.Errorf("lint: no export data for %q", path)
			}
		}
		return os.Open(f)
	})
	return l
}

// goList runs `go list -e -export -deps -json` over patterns and returns
// every listed package — targets and dependencies alike; callers filter.
// -export makes go list build/locate compiler export data for every
// dependency (most of a run's wall time) and each export-data file is
// recorded for the importer. Repeat calls with identical arguments are
// memoized to nil.
func (l *loader) goList(patterns ...string) ([]listPkg, error) {
	key := strings.Join(patterns, "\x00")
	if l.listed[key] {
		return nil, nil
	}
	l.listed[key] = true
	args := []string{"list", "-e", "-export", "-deps", "-json=ImportPath,Dir,GoFiles,Export,Standard,DepOnly,Error"}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.moduleDir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// importFor is the types.Importer handed to the checker: fixtures first,
// then export data.
type importFor struct{ l *loader }

func (c importFor) Import(path string) (*types.Package, error) {
	if pkg, ok := c.l.checked[path]; ok {
		return pkg.Types, nil
	}
	if c.l.srcRoot != "" {
		dir := filepath.Join(c.l.srcRoot, filepath.FromSlash(path))
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			pkg, err := c.l.checkDir(path, dir, nil)
			if err != nil {
				return nil, err
			}
			return pkg.Types, nil
		}
	}
	return c.l.gcImp.Import(path)
}

// checkDir parses and type-checks one directory as the package at
// importPath. files, when non-nil, names the exact files to load
// (go list mode); otherwise every .go file in dir except tests is taken
// (fixture mode).
func (l *loader) checkDir(importPath, dir string, files []string) (*Package, error) {
	if pkg, ok := l.checked[importPath]; ok {
		return pkg, nil
	}
	if files == nil {
		ents, err := os.ReadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("lint: reading fixture dir %s: %v", dir, err)
		}
		for _, e := range ents {
			name := e.Name()
			if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
				files = append(files, name)
			}
		}
		sort.Strings(files)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: package %s (%s) has no Go files", importPath, dir)
	}
	pkg := &Package{Path: importPath, Fset: l.fset, Src: map[string][]byte{}}
	for _, name := range files {
		full := filepath.Join(dir, name)
		src, err := os.ReadFile(full)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		f, err := parser.ParseFile(l.fset, full, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		pkg.Src[full] = src
		pkg.Files = append(pkg.Files, f)
	}
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importFor{l}}
	tpkg, err := conf.Check(importPath, l.fset, pkg.Files, pkg.Info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", importPath, err)
	}
	pkg.Types = tpkg
	l.checked[importPath] = pkg
	return pkg, nil
}

// LoadPackages loads and type-checks the non-test Go files of every
// module package matched by patterns (e.g. "./..."), resolving imports
// through compiler export data so no package is checked twice. moduleDir
// is the directory go list runs in.
func LoadPackages(moduleDir string, patterns []string) ([]*Package, error) {
	l := newLoader(moduleDir, "")
	listed, err := l.goList(patterns...)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	var errs []string
	for _, t := range listed {
		if t.Standard || t.DepOnly {
			continue
		}
		if t.Error != nil {
			errs = append(errs, fmt.Sprintf("%s: %s", t.ImportPath, t.Error.Err))
			continue
		}
		if len(t.GoFiles) == 0 {
			continue
		}
		pkg, err := l.checkDir(t.ImportPath, t.Dir, t.GoFiles)
		if err != nil {
			errs = append(errs, err.Error())
			continue
		}
		pkgs = append(pkgs, pkg)
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("lint: load failed:\n  %s", strings.Join(errs, "\n  "))
	}
	return pkgs, nil
}

// LoadFixturePackages loads fixture packages (analysistest layout:
// srcRoot/<importpath>/*.go) into one shared loader. Imports resolve
// first against sibling fixture directories under srcRoot, then against
// real packages via export data — so fixtures may import actual actop
// packages such as actop/internal/metrics; moduleDir anchors the go list
// runs. Paths must be listed dependencies first (a fixture importing a
// listed sibling also works in any order: the import resolves through
// the shared loader either way, but facts only flow
// dependency-before-dependent). The returned slice follows the input
// order.
func LoadFixturePackages(moduleDir, srcRoot string, paths []string) ([]*Package, error) {
	l := newLoader(moduleDir, srcRoot)
	pkgs := make([]*Package, 0, len(paths))
	for _, path := range paths {
		dir := filepath.Join(srcRoot, filepath.FromSlash(path))
		pkg, err := l.checkDir(path, dir, nil)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}
