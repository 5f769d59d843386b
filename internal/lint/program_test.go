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
// tmpmod/actor/inner exporting a wire sentinel and an ungated spin
// loop, tmpmod/actor/outer importing both hazards — so RunProgram can
// exercise go list, cross-package facts, and the stale-directive check
// against a real module on disk (RunPackages, which the fixture harness
// uses, deliberately keeps staleness off).
func writeTempModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"actor/inner/inner.go": `// Package inner exports the hazards outer trips over.
package inner

import "errors"

// ErrGone crosses the wire and comes back a different instance.
var ErrGone = errors.New("gone")

// Spin runs forever with no shutdown gate.
func Spin() {
	n := 0
	for {
		n++
	}
}
`,
		"actor/outer/outer.go": `// Package outer holds one live finding, one suppressed finding, one
// stale directive, and one cross-package leak.
package outer

import "tmpmod/actor/inner"

func Classify(err error) string {
	if err == inner.ErrGone { // live errident finding
		return "gone"
	}
	return ""
}

func Quiet(err error) string {
	if err == inner.ErrGone { //actoplint:ignore errident audited: local-only path, never crosses the wire
		return "gone"
	}
	return ""
}

//actoplint:ignore errident anchored to nothing, must be reported stale
func Spawn() {
	go inner.Spin() // cross-package goleak finding via inner's UngatedFact
}
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
	findings, stats, err := lint.RunProgram(dir, []string{"./..."}, lint.Analyzers(), lint.Options{})
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
		t.Fatalf("expected 3 findings (errident, goleak, stale directive), got %d:\n%v", len(findings), findings)
	}
	assertFinding(t, findings, "errident", "error compared with ==")
	assertFinding(t, findings, "goleak", "goroutine calls inner.Spin, which runs an infinite loop")
	assertFinding(t, findings, lint.DirectiveAnalyzer, "stale actoplint:ignore errident: it suppresses no finding")
	for _, f := range findings {
		if strings.Contains(f.Message, "audited: local-only path") {
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
