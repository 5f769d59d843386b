package lint

import (
	"fmt"
	"time"
)

// Stats reports what one run did — the CLI's -time output.
type Stats struct {
	Packages int // target packages parsed, type-checked and analyzed
	Total    time.Duration

	// AnalyzerTime accumulates wall time per analyzer across all
	// packages and its Finish pass.
	AnalyzerTime map[string]time.Duration
}

// RunProgram loads every module package matched by patterns in
// dependency order, analyzes them as one program, and resolves
// suppression directives globally — including reporting stale
// directives that no longer suppress anything.
func RunProgram(moduleDir string, patterns []string, analyzers []*Analyzer) ([]Finding, *Stats, error) {
	start := time.Now()
	pkgs, err := LoadPackages(moduleDir, patterns)
	if err != nil {
		return nil, nil, err
	}
	stats := &Stats{Packages: len(pkgs), AnalyzerTime: map[string]time.Duration{}}
	running := map[string]bool{}
	for _, a := range analyzers {
		running[a.Name] = true
	}
	findings, err := runPackages(pkgs, analyzers, running, stats.AnalyzerTime)
	if err != nil {
		return nil, nil, err
	}
	stats.Total = time.Since(start)
	return findings, stats, nil
}

// RunPackages analyzes pre-loaded packages as one program — what the
// fixture harness (linttest) uses. Stale-directive detection is off
// here: fixtures deliberately carry inert directives to pin scoping
// rules.
func RunPackages(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	return runPackages(pkgs, analyzers, nil, map[string]time.Duration{})
}

// runPackages is the one package-analysis loop: every matching analyzer
// over every package in the order given (dependencies first, so a fact
// is exported before any importer asks for it), then the Finish passes
// over the complete fact store, then directive resolution. A non-nil
// running turns stale-directive detection on for the analyzers it names.
func runPackages(pkgs []*Package, analyzers []*Analyzer, running map[string]bool, times map[string]time.Duration) ([]Finding, error) {
	known := knownNames(analyzers)
	prog := newProgram()
	var all []Finding
	var dirs []directive
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Match != nil && !a.Match(pkg.Path) {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				prog:      prog,
			}
			pass.report = func(d Diagnostic) {
				all = append(all, Finding{
					Pos:      pkg.Fset.Position(d.Pos),
					Analyzer: a.Name,
					Message:  d.Message,
				})
			}
			t0 := time.Now()
			err := a.Run(pass)
			times[a.Name] += time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("lint: analyzer %s on %s: %v", a.Name, pkg.Path, err)
			}
		}
		dirs = append(dirs, scanDirectives(pkg, known)...)
	}
	for _, a := range analyzers {
		if a.Finish == nil {
			continue
		}
		fp := &FinishPass{
			Analyzer: a,
			prog:     prog,
			report:   func(f Finding) { all = append(all, f) },
		}
		t0 := time.Now()
		a.Finish(fp)
		times[a.Name] += time.Since(t0)
	}
	findings := resolveDirectives(all, dirs, running)
	sortFindings(findings)
	return findings, nil
}

// knownNames is the directive namespace for a run: the full suite plus
// whatever analyzers were passed (fixture runs of one analyzer still
// accept directives naming the others).
func knownNames(analyzers []*Analyzer) map[string]bool {
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	return known
}
