package lint_test

import (
	"testing"

	"actop/internal/lint"
	"actop/internal/lint/linttest"
)

// Each analyzer runs against its golden fixture package: every `// want`
// regexp must be matched by exactly one finding on its line, and every
// finding must be claimed — so these tests pin both the true positives
// and the near-miss negatives.

func TestTurnBlock(t *testing.T) {
	linttest.CheckAnalyzer(t, lint.TurnBlock)
	linttest.Run(t, "turnblock/a", lint.TurnBlock)
}

func TestLockHeldIO(t *testing.T) {
	linttest.CheckAnalyzer(t, lint.LockHeldIO)
	linttest.Run(t, "lockheldio/a", lint.LockHeldIO)
}

func TestPoolEscape(t *testing.T) {
	linttest.CheckAnalyzer(t, lint.PoolEscape)
	linttest.Run(t, "poolescape/a", lint.PoolEscape)
}

func TestCallDag(t *testing.T) {
	linttest.CheckAnalyzer(t, lint.CallDag)
	// Two sibling packages whose kinds call each other synchronously —
	// the ctlStage-livelock shape; only the whole-program kind graph
	// (union of both packages' CallDagFacts) exposes the cycle.
	linttest.RunMulti(t, []string{"calldag/a", "calldag/b"}, lint.CallDag)
}

// TestCrossPackageFacts pins the facts plumbing end to end: facts/a
// exports Blocker/Retains/DirectIO facts, and every want in facts/b
// fires only because the importing pass consumed them.
func TestCrossPackageFacts(t *testing.T) {
	linttest.RunMulti(t, []string{"facts/a", "facts/b"},
		lint.TurnBlock, lint.PoolEscape, lint.LockHeldIO)
}

// TestSuiteNamesUnique guards the directive namespace: duplicate or
// reserved analyzer names would make //actoplint:ignore ambiguous.
func TestSuiteNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range lint.Analyzers() {
		if a.Name == lint.DirectiveAnalyzer {
			t.Fatalf("analyzer name %q collides with the directive pseudo-analyzer", a.Name)
		}
		if seen[a.Name] {
			t.Fatalf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if len(seen) != 4 {
		t.Fatalf("expected the 4-analyzer suite, got %d", len(seen))
	}
}
