package lint_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"actop/internal/lint"
)

// writeTempModule lays out a self-contained two-package module —
// tmpmod/actor (the turn contract plus a helper that sleeps) and
// tmpmod/outer, whose turn trips over both — so RunProgram can exercise
// go list, cross-package facts, and the stale-directive check against a
// real module on disk (RunPackages, which the fixture harness uses,
// deliberately keeps staleness off).
func writeTempModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"actor/actor.go": `// Package actor holds the turn contract and a helper no turn may call.
package actor

import "time"

type Context struct{}

// Pause sleeps: a turn calling it blocks its worker.
func Pause() { time.Sleep(time.Millisecond) }
`,
		"outer/outer.go": `// Package outer holds one live finding, one suppressed finding, one
// stale directive, and one cross-package blocked turn.
package outer

import (
	"time"

	"tmpmod/actor"
)

type node struct{}

func (node) Receive(ctx *actor.Context, method string, args []byte) ([]byte, error) {
	time.Sleep(time.Millisecond) // live turnblock finding
	time.Sleep(time.Millisecond) //actoplint:ignore turnblock audited: a one-millisecond test pause
	actor.Pause()                // cross-package turnblock finding via actor's BlockerFact
	return nil, nil
}

//actoplint:ignore turnblock anchored to nothing, must be reported stale
func idle() {}
`,
	}
	for name, src := range files {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func runTempModule(t *testing.T, dir string) ([]lint.Finding, *lint.Stats) {
	t.Helper()
	findings, stats, err := lint.RunProgram(dir, []string{"./..."}, lint.Analyzers())
	if err != nil {
		t.Fatalf("RunProgram: %v", err)
	}
	return findings, stats
}

// TestRunProgramStaleDirective pins the whole-program run end to end:
// the live finding and the cross-package fact finding surface, the
// justified suppression holds, and the directive that suppresses
// nothing is itself reported.
func TestRunProgramStaleDirective(t *testing.T) {
	dir := writeTempModule(t)
	findings, stats := runTempModule(t, dir)
	if stats.Packages != 2 {
		t.Fatalf("expected 2 packages analyzed, got %+v", stats)
	}
	if len(findings) != 3 {
		t.Fatalf("expected 3 findings (turnblock twice, stale directive), got %d:\n%v", len(findings), findings)
	}
	assertFinding(t, findings, "turnblock", "time.Sleep blocks the worker thread in actor turn (node).Receive")
	assertFinding(t, findings, "turnblock", "actor.Pause blocks in actor turn (node).Receive: time.Sleep")
	assertFinding(t, findings, lint.DirectiveAnalyzer, "stale actoplint:ignore turnblock: it suppresses no finding")
	for _, f := range findings {
		if strings.Contains(f.Message, "audited: a one-millisecond") {
			t.Fatalf("justified suppression leaked through: %v", f)
		}
	}
}

func assertFinding(t *testing.T, findings []lint.Finding, analyzer, substr string) {
	t.Helper()
	for _, f := range findings {
		if f.Analyzer == analyzer && strings.Contains(f.Message, substr) {
			return
		}
	}
	t.Fatalf("no %s finding containing %q in:\n%v", analyzer, substr, findings)
}

// TestRunProgramDeterministic runs the identical program twice and
// requires byte-identical findings in identical order — the property
// CI diffs lean on.
func TestRunProgramDeterministic(t *testing.T) {
	dir := writeTempModule(t)
	a, _ := runTempModule(t, dir)
	b, _ := runTempModule(t, dir)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs over the same program disagree:\nrun1: %v\nrun2: %v", a, b)
	}
}
