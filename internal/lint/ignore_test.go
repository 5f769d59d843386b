package lint_test

import (
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"actop/internal/lint"
	"actop/internal/lint/linttest"
)

// TestIgnoreScoping runs turnblock over a fixture whose findings are
// variously suppressed: an own-line directive must cover exactly the
// next line, an inline directive exactly its own line, and a directive
// naming a different analyzer (or sitting too far away) must leave the
// finding live. The fixture's want comments encode all four cases.
func TestIgnoreScoping(t *testing.T) {
	linttest.Run(t, "ignoredemo/a", lint.TurnBlock)
}

// TestIgnoreMalformed checks that broken directives are themselves
// diagnostics: unknown analyzer names (one that never existed, one that
// left the suite), missing reasons, and attempts to name the directive
// pseudo-analyzer all surface as "actoplint"
// findings anchored on the directive's line — which is why this test
// asserts programmatically instead of with want comments.
func TestIgnoreMalformed(t *testing.T) {
	pkgs := loadFixture(t, "ignoredemo/bad")
	findings, err := lint.RunPackages(pkgs, lint.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	wantSubstrings := []string{
		`names unknown analyzer "nosuchanalyzer"`,
		`actoplint:ignore turnblock needs a reason`,
		`names unknown analyzer "metriclabel"`,
		`needs an analyzer name and a reason`,
		`names unknown analyzer "actoplint"`,
	}
	if len(findings) != len(wantSubstrings) {
		t.Fatalf("got %d findings, want %d:\n%v", len(findings), len(wantSubstrings), findings)
	}
	for i, want := range wantSubstrings {
		if findings[i].Analyzer != lint.DirectiveAnalyzer {
			t.Errorf("finding %d: analyzer = %q, want %q", i, findings[i].Analyzer, lint.DirectiveAnalyzer)
		}
		if !strings.Contains(findings[i].Message, want) {
			t.Errorf("finding %d: message %q does not contain %q", i, findings[i].Message, want)
		}
	}
}

// TestIgnoreSilencesOnlyNamedAnalyzer pins the "and nothing else"
// half of the contract at the API level: with two analyzers producing
// findings on one line, a directive naming one must leave the other's
// finding standing. The shared fixture lines are crafted so both
// turnblock (a time.Sleep in a turn) and the directive scoping are in
// play.
func TestIgnoreSilencesOnlyNamedAnalyzer(t *testing.T) {
	pkgs := loadFixture(t, "ignoredemo/a")
	findings, err := lint.RunPackages(pkgs, []*lint.Analyzer{lint.TurnBlock})
	if err != nil {
		t.Fatal(err)
	}
	// The fixture carries 4 sleeps; 2 are suppressed by valid turnblock
	// directives, 2 survive (wrong analyzer name, out of range).
	var survivors int
	for _, f := range findings {
		if f.Analyzer == lint.TurnBlock.Name {
			survivors++
		}
	}
	if survivors != 2 {
		t.Fatalf("got %d surviving turnblock findings, want 2:\n%v", survivors, findings)
	}
}

func loadFixture(t *testing.T, path string) []*lint.Package {
	t.Helper()
	_, thisFile, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cannot locate test file")
	}
	dir := filepath.Dir(thisFile)
	pkgs, err := lint.LoadFixturePackages(moduleRootFrom(dir), filepath.Join(dir, "testdata", "src"), []string{path})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

func moduleRootFrom(dir string) string {
	// internal/lint -> module root is two levels up.
	return filepath.Dir(filepath.Dir(dir))
}
