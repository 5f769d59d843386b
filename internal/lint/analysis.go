// Package lint is actop's domain-specific static-analysis suite: four
// analyzers that enforce runtime invariants nothing else in the gate
// (vet, staticcheck, the race and seeded batteries) can see — "never
// block inside an actor turn", "no I/O while a mutex is held", "pooled
// buffers don't outlive their release", "the actor-kind call graph is
// a DAG".
// Invariants a runtime gate already fails on are left to that gate (see
// DESIGN.md "Static analysis" for the invariant → guard table).
// Each invariant here was first paid for as a runtime bug found by the
// chaos/race batteries of earlier PRs; the analyzers move those classes
// of failure to compile time.
//
// The suite is whole-program: packages are analyzed one at a time in
// dependency order and exchange facts (see facts.go), so a helper in
// internal/codec that blocks is visible from a Receive body in
// internal/actor, and properties no package can see alone (a
// synchronous call cycle between two sibling packages that never import
// each other) are checked in a Finish pass over the complete fact
// store.
//
// The API deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic, facts) so the suite could be ported onto
// the upstream framework verbatim. It is implemented on the standard
// library alone — go/ast, go/types, and `go list -export` for
// dependency export data — because this module carries no third-party
// dependencies, not even for tooling (see the Makefile header and
// DESIGN.md "Static analysis").
//
// Suppression: a comment of the form
//
//	//actoplint:ignore <analyzer> <reason>
//
// on its own line silences the named analyzer on the line that follows;
// trailing the offending code, it silences that line. The reason is
// mandatory, and naming an unknown analyzer is itself a diagnostic, so
// suppressions stay auditable.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one invariant check. The shape matches
// x/tools/go/analysis.Analyzer, including the fact machinery; Finish is
// the one extension (x/tools has no program-wide hook because its unit
// of work is a package — ours is the module).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //actoplint:ignore directives. Lower-case, no spaces.
	Name string

	// Doc is the one-paragraph invariant statement shown by -list.
	Doc string

	// Match restricts the analyzer to packages whose import path it
	// accepts. A nil Match runs everywhere.
	Match func(pkgPath string) bool

	// Run performs the check on one type-checked package, reporting
	// findings through pass.Reportf and exporting facts for importing
	// packages through pass.ExportObjectFact/ExportPackageFact.
	Run func(pass *Pass) error

	// Finish, when non-nil, runs once after every package, with the
	// complete fact store in view — for whole-program properties like
	// cycles between packages that never import each other.
	Finish func(pass *FinishPass)
}

// A Pass hands one type-checked package to one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
	prog   *Program
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, positioned by token.Pos (resolved to a
// file:line:col Finding by the runner).
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Finding is a resolved diagnostic: the unit the runner returns and the
// CLI prints.
type Finding struct {
	Pos      token.Position
	Analyzer string // analyzer name, or "actoplint" for directive errors
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// sortFindings orders findings by file, line, column, then analyzer, so
// output is stable across runs.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// Analyzers returns the full actop-lint suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		TurnBlock,
		LockHeldIO,
		PoolEscape,
		CallDag,
	}
}
