package actop_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// docsNamingTests are the documents whose test names must exist: a guard a
// document cites, and no test carries, guards nothing.
var docsNamingTests = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

// testName matches a test, benchmark or fuzz target's name in prose, or a
// prefix of such names written with a trailing `*`.
var testName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*\*?`)

// TestDocsNameExistingTests fails when a document names a test, benchmark
// or fuzz target — or a `Name*` prefix of them — that no _test.go file in
// the module declares.
func TestDocsNameExistingTests(t *testing.T) {
	declared := declaredTests(t)
	for _, doc := range docsNamingTests {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]bool)
		for _, name := range testName.FindAllString(string(text), -1) {
			if seen[name] {
				continue
			}
			seen[name] = true
			if !namesDeclared(name, declared) {
				t.Errorf("%s names %s, which matches no test in the module", doc, name)
			}
		}
	}
}

// makeTarget matches `make <target>` written as code: in a code span or
// at the start of a line of a code block.
var makeTarget = regexp.MustCompile("(?m)(?:`|^\\s*)make ([a-z][a-z0-9-]*)")

// repoPath matches a path into cmd/ or internal/ (a trailing `.Name`, a
// package-qualified identifier, is not part of it) or a root BENCH_*.json.
var repoPath = regexp.MustCompile(`\b(?:(?:cmd|internal)/[A-Za-z0-9_/-]*(?:\.go)?|BENCH_[A-Za-z0-9_]*\.json)`)

// TestDocsNameExistingTargetsAndPaths fails when a document names a make
// target the Makefile does not declare .PHONY, or a cmd/, internal/ or
// BENCH_*.json path that is not in the tree: a command to run or a file to
// read must exist.
func TestDocsNameExistingTargetsAndPaths(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	phony := make(map[string]bool)
	for _, m := range regexp.MustCompile(`(?m)^\.PHONY:(.*)$`).FindAllStringSubmatch(string(mk), -1) {
		for _, target := range strings.Fields(m[1]) {
			phony[target] = true
		}
	}
	for _, doc := range docsNamingTests {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range makeTarget.FindAllStringSubmatch(string(text), -1) {
			if !phony[m[1]] {
				t.Errorf("%s names make %s, which the Makefile does not declare .PHONY", doc, m[1])
			}
		}
		seen := make(map[string]bool)
		for _, p := range repoPath.FindAllString(string(text), -1) {
			p = strings.TrimRight(p, "/")
			if seen[p] {
				continue
			}
			seen[p] = true
			if _, err := os.Stat(p); err != nil {
				t.Errorf("%s names %s, which is not in the tree", doc, p)
			}
		}
	}
}

// namesDeclared reports whether name — or, ending in `*`, the prefix
// before it — matches a declared name (declared is sorted).
func namesDeclared(name string, declared []string) bool {
	prefix, isPrefix := strings.CutSuffix(name, "*")
	i := sort.SearchStrings(declared, prefix)
	if i == len(declared) {
		return false
	}
	if isPrefix {
		return strings.HasPrefix(declared[i], prefix)
	}
	return declared[i] == name
}

// declaredTests lists, sorted, the name of every top-level function in the
// module's _test.go files.
func declaredTests(t *testing.T) []string {
	t.Helper()
	var names []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				names = append(names, fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	return names
}
