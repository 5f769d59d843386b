package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"reflect"
	"sort"
)

// The facts layer turns the per-package suite into a whole-program one,
// mirroring golang.org/x/tools/go/analysis facts on the standard library
// alone. A fact is a statement an analyzer proves about an exported
// object ("this function blocks") or about a package as a whole
// ("this package registers actor kind X and calls kind Y from a turn").
// Packages are analyzed in dependency order, so when an analyzer runs on
// an importer, every fact its dependencies exported is already available
// — a helper in internal/codec that blocks is visible from a Receive
// body in internal/actor, which the old per-package suite could not see.

// A Fact is a pointer to a struct carrying one unit of derived
// knowledge. The AFact marker method mirrors x/tools and keeps
// arbitrary values out of the fact store.
type Fact interface{ AFact() }

// A Site is a resolved source position, used inside facts so a
// diagnostic in the importing package can point back at the evidence in
// the exporting one (token.Pos values do not survive cross-FileSet
// transport).
type Site struct {
	File string
	Line int
	Col  int
}

func siteOf(fset *token.FileSet, pos token.Pos) Site {
	p := fset.Position(pos)
	return Site{File: p.Filename, Line: p.Line, Col: p.Column}
}

// Position converts the site back into a printable token.Position.
func (s Site) Position() token.Position {
	return token.Position{Filename: s.File, Line: s.Line, Column: s.Col}
}

func (s Site) String() string { return fmt.Sprintf("%s:%d", s.File, s.Line) }

// objKey canonicalizes an object for fact addressing: package-level
// objects by name, methods as (T).name. Name-based keys (rather than
// object identity) are what lets a fact computed from source match the
// same object materialized later from compiler export data. Locals and
// struct fields have no stable cross-package name and get no key.
func objKey(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	if fn, ok := obj.(*types.Func); ok {
		if r := recvTypeName(fn); r != "" {
			return "(" + r + ")." + fn.Name(), true
		}
		return fn.Name(), true
	}
	if obj.Parent() == obj.Pkg().Scope() {
		return obj.Name(), true
	}
	return "", false
}

type objFactKey struct {
	pkg string // declaring package path
	obj string // objKey
	typ reflect.Type
}

type pkgFactKey struct {
	pkg string
	typ reflect.Type
}

// A Program is the whole-program analysis state: every fact exported so
// far, shared by all passes of one run. Packages are analyzed one at a
// time in dependency order, so a fact is fully exported before any
// importer can ask for it.
type Program struct {
	objFacts map[objFactKey]Fact
	pkgFacts map[pkgFactKey]Fact
}

func newProgram() *Program {
	return &Program{
		objFacts: map[objFactKey]Fact{},
		pkgFacts: map[pkgFactKey]Fact{},
	}
}

func factType(f Fact) reflect.Type {
	t := reflect.TypeOf(f)
	if t == nil || t.Kind() != reflect.Ptr || t.Elem().Kind() != reflect.Struct {
		panic(fmt.Sprintf("lint: fact %T must be a pointer to a struct", f))
	}
	return t
}

func (prog *Program) setObjFact(pkg, obj string, f Fact) {
	prog.objFacts[objFactKey{pkg, obj, factType(f)}] = f
}

func (prog *Program) getObjFact(pkg, obj string, dst Fact) bool {
	src, ok := prog.objFacts[objFactKey{pkg, obj, factType(dst)}]
	if !ok {
		return false
	}
	reflect.ValueOf(dst).Elem().Set(reflect.ValueOf(src).Elem())
	return true
}

func (prog *Program) setPkgFact(pkg string, f Fact) {
	prog.pkgFacts[pkgFactKey{pkg, factType(f)}] = f
}

// ExportObjectFact attaches f to obj for importing packages to consume.
// Only exported objects declared in the current package are eligible:
// those are the only ones a cross-package call site can reach, and the
// only ones whose name-based key survives export data.
func (p *Pass) ExportObjectFact(obj types.Object, f Fact) {
	if p.prog == nil || obj == nil || obj.Pkg() == nil || p.Pkg == nil ||
		obj.Pkg().Path() != p.Pkg.Path() || !obj.Exported() {
		return
	}
	key, ok := objKey(obj)
	if !ok {
		return
	}
	p.prog.setObjFact(obj.Pkg().Path(), key, f)
}

// ImportObjectFact copies the fact of f's type attached to obj (by any
// earlier pass, in this or a dependency package) into f, reporting
// whether one existed.
func (p *Pass) ImportObjectFact(obj types.Object, f Fact) bool {
	if p.prog == nil || obj == nil || obj.Pkg() == nil {
		return false
	}
	key, ok := objKey(obj)
	if !ok {
		return false
	}
	return p.prog.getObjFact(obj.Pkg().Path(), key, f)
}

// ExportPackageFact attaches f to the package being analyzed.
func (p *Pass) ExportPackageFact(f Fact) {
	if p.prog == nil || p.Pkg == nil {
		return
	}
	p.prog.setPkgFact(p.Pkg.Path(), f)
}

// A FinishPass runs once per analyzer after every package has been
// analyzed, with the complete fact store in view. It exists for
// properties no single package can see even with facts flowing along
// import edges: two sibling packages can form a synchronous actor-call
// cycle purely through kind strings, with no import relation at all.
type FinishPass struct {
	Analyzer *Analyzer
	prog     *Program
	report   func(Finding)
}

// Reportf records a program-level finding at a resolved position
// (program-level evidence lives in fact Sites, not token.Pos).
func (p *FinishPass) Reportf(pos token.Position, format string, args ...interface{}) {
	p.report(Finding{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// EachPackageFact visits every package fact of proto's dynamic type in
// sorted package-path order, so Finish passes are deterministic by
// construction. The visited fact is shared state: read, don't mutate.
func (p *FinishPass) EachPackageFact(proto Fact, visit func(pkgPath string, f Fact)) {
	t := factType(proto)
	var paths []string
	for k := range p.prog.pkgFacts {
		if k.typ == t {
			paths = append(paths, k.pkg)
		}
	}
	sort.Strings(paths)
	for _, path := range paths {
		visit(path, p.prog.pkgFacts[pkgFactKey{path, t}])
	}
}
