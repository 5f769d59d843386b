// Command actop-lint is the multichecker for actop's four domain-specific
// analyzers: the invariants of the actor runtime (no blocking inside a
// turn, an acyclic kind graph) and of the transport (no I/O under a lock,
// no pooled-buffer escapes). It is built on the standard library only —
// see internal/lint and DESIGN.md "Static analysis".
//
// Usage:
//
//	actop-lint [-list] [-only name,name] [-time] [packages]
//
// Analysis is whole-program: packages are analyzed one at a time in
// dependency order, facts flow along import edges, and cross-package
// Finish passes (e.g. the synchronous-call-cycle check) see every
// package. -time prints per-analyzer wall time to stderr.
//
// Packages default to ./... relative to the current directory. Exit
// status is 0 when clean, 1 when findings survive suppression, 2 on a
// load or internal error. Findings print as
//
//	file:line:col: [analyzer] message
//
// and are silenced line-by-line with `//actoplint:ignore <analyzer>
// <reason>` directives (see internal/lint docs for the exact scoping
// rules; reasons are mandatory and audited).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"actop/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("actop-lint", flag.ContinueOnError)
	list := fs.Bool("list", false, "print the analyzer suite and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	times := fs.Bool("time", false, "print per-analyzer wall time to stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		keep := map[string]bool{}
		for _, n := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(n)] = true
		}
		var sel []*lint.Analyzer
		for _, a := range analyzers {
			if keep[a.Name] {
				sel = append(sel, a)
				delete(keep, a.Name)
			}
		}
		for n := range keep {
			fmt.Fprintf(os.Stderr, "actop-lint: unknown analyzer %q (see -list)\n", n)
			return 2
		}
		analyzers = sel
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "actop-lint: %v\n", err)
		return 2
	}
	findings, stats, err := lint.RunProgram(cwd, patterns, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "actop-lint: %v\n", err)
		return 2
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if *times {
		printStats(stats, analyzers)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "actop-lint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// printStats reports the run's wall time and the time per analyzer (in
// suite order), all on stderr so finding output stays parseable.
func printStats(stats *lint.Stats, analyzers []*lint.Analyzer) {
	fmt.Fprintf(os.Stderr, "actop-lint: %d package(s) in %s\n",
		stats.Packages, stats.Total.Round(time.Millisecond))
	for _, a := range analyzers {
		if d, ok := stats.AnalyzerTime[a.Name]; ok {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, d.Round(time.Microsecond))
		}
	}
}
