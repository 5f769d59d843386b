package lint

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// Options tunes a whole-program run.
type Options struct {
	// Jobs caps how many packages analyze concurrently. <= 0 means
	// GOMAXPROCS. Dependencies still complete before dependents start,
	// so facts always flow in order.
	Jobs int
}

// Stats reports what one run did — the CLI's -time output.
type Stats struct {
	Packages int // target packages parsed, type-checked and analyzed
	Total    time.Duration

	// AnalyzerTime accumulates wall time per analyzer across all
	// packages (concurrent package runs sum, so this can exceed Total).
	AnalyzerTime map[string]time.Duration
}

// timings is the mutex-guarded accumulator behind Stats.AnalyzerTime.
type timings struct {
	mu sync.Mutex
	m  map[string]time.Duration
}

func (t *timings) add(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.m[name] += d
	t.mu.Unlock()
}

// RunProgram loads every module package matched by patterns, analyzes
// them in dependency order (independent packages in parallel), runs the
// Finish passes over the complete fact store, and resolves suppression
// directives globally — including reporting stale directives that no
// longer suppress anything.
func RunProgram(moduleDir string, patterns []string, analyzers []*Analyzer, opts Options) ([]Finding, *Stats, error) {
	start := time.Now()
	stats := &Stats{AnalyzerTime: map[string]time.Duration{}}
	tm := &timings{m: map[string]time.Duration{}}

	l := newLoader(moduleDir, "")
	listed, err := l.goList(patterns...)
	if err != nil {
		return nil, nil, err
	}
	var targets []listPkg
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
		targets = append(targets, t)
	}
	if len(errs) > 0 {
		return nil, nil, fmt.Errorf("lint: load failed:\n  %s", strings.Join(errs, "\n  "))
	}
	stats.Packages = len(targets)

	paths := make([]string, len(targets))
	for i, t := range targets {
		paths[i] = t.ImportPath
	}
	prog := newProgram(paths)

	known := knownNames(analyzers)
	jobs := opts.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}

	// Per-package results, written once each under resMu.
	type pkgResult struct {
		raw  []Finding
		dirs []directive
		err  error
	}
	results := make(map[string]*pkgResult, len(targets))
	var resMu sync.Mutex

	// Dependency-triggered scheduling: each package waits for its
	// module dependencies (go list -deps emits dependencies first, so
	// ranging over targets in order spawns waiters before their
	// dependents ever complete), then takes a concurrency slot. Facts
	// are therefore always complete before an importer reads them.
	done := make(map[string]chan struct{}, len(targets))
	for _, t := range targets {
		done[t.ImportPath] = make(chan struct{})
	}
	sem := make(chan struct{}, jobs)
	var wg sync.WaitGroup
	for _, t := range targets {
		t := t
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(done[t.ImportPath])
			for _, imp := range t.Imports {
				if ch, ok := done[imp]; ok {
					<-ch
				}
			}
			sem <- struct{}{}
			defer func() { <-sem }()

			res := &pkgResult{}
			defer func() {
				resMu.Lock()
				results[t.ImportPath] = res
				resMu.Unlock()
			}()

			pkg, err := l.checkDir(t.ImportPath, t.Dir, t.GoFiles)
			if err != nil {
				res.err = err
				return
			}
			raw, err := analyzePackage(prog, pkg, analyzers, tm)
			if err != nil {
				res.err = err
				return
			}
			res.raw = raw
			res.dirs = scanDirectives(pkg, known)
		}()
	}
	wg.Wait()

	var all []Finding
	var dirs []directive
	for _, t := range targets {
		res := results[t.ImportPath]
		if res == nil {
			continue
		}
		if res.err != nil {
			errs = append(errs, res.err.Error())
			continue
		}
		all = append(all, res.raw...)
		dirs = append(dirs, res.dirs...)
	}
	if len(errs) > 0 {
		return nil, nil, fmt.Errorf("lint: load failed:\n  %s", strings.Join(errs, "\n  "))
	}

	all = append(all, runFinish(prog, analyzers, tm)...)

	running := map[string]bool{}
	for _, a := range analyzers {
		running[a.Name] = true
	}
	findings := resolveDirectives(all, dirs, running, true)
	sortFindings(findings)
	stats.Total = time.Since(start)
	for k, v := range tm.m {
		stats.AnalyzerTime[k] = v
	}
	return findings, stats, nil
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

// analyzePackage applies every matching analyzer to one loaded package,
// returning raw (pre-suppression) findings. Facts land in prog.
func analyzePackage(prog *Program, pkg *Package, analyzers []*Analyzer, tm *timings) ([]Finding, error) {
	var raw []Finding
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
		name := a.Name
		pass.report = func(d Diagnostic) {
			raw = append(raw, Finding{
				Pos:      pkg.Fset.Position(d.Pos),
				Analyzer: name,
				Message:  d.Message,
			})
		}
		t0 := time.Now()
		err := a.Run(pass)
		tm.add(name, time.Since(t0))
		if err != nil {
			return nil, fmt.Errorf("lint: analyzer %s on %s: %v", a.Name, pkg.Path, err)
		}
	}
	return raw, nil
}

// runFinish runs every analyzer's Finish pass over the complete fact
// store, in suite order.
func runFinish(prog *Program, analyzers []*Analyzer, tm *timings) []Finding {
	var out []Finding
	for _, a := range analyzers {
		if a.Finish == nil {
			continue
		}
		fp := &FinishPass{
			Analyzer: a,
			prog:     prog,
			report:   func(f Finding) { out = append(out, f) },
		}
		t0 := time.Now()
		a.Finish(fp)
		tm.add(a.Name, time.Since(t0))
	}
	return out
}

// RunPackages analyzes pre-loaded packages in the order given
// (dependencies first), flowing facts between them and running Finish
// passes — the in-memory twin of RunProgram, used by linttest and the
// single-package fixture path. Stale-directive detection is off here:
// fixtures deliberately carry inert directives to pin scoping rules.
func RunPackages(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	known := knownNames(analyzers)
	paths := make([]string, len(pkgs))
	for i, p := range pkgs {
		paths[i] = p.Path
	}
	prog := newProgram(paths)
	tm := &timings{m: map[string]time.Duration{}}
	var all []Finding
	var dirs []directive
	for _, pkg := range pkgs {
		raw, err := analyzePackage(prog, pkg, analyzers, tm)
		if err != nil {
			return nil, err
		}
		all = append(all, raw...)
		dirs = append(dirs, scanDirectives(pkg, known)...)
	}
	all = append(all, runFinish(prog, analyzers, tm)...)
	findings := resolveDirectives(all, dirs, nil, false)
	sortFindings(findings)
	return findings, nil
}

// sortedPaths returns prog's target paths in sorted order (used by
// Finish passes that need deterministic iteration).
func (prog *Program) sortedPaths() []string {
	prog.mu.Lock()
	out := make([]string, 0, len(prog.targets))
	for p := range prog.targets {
		out = append(out, p)
	}
	prog.mu.Unlock()
	sort.Strings(out)
	return out
}
