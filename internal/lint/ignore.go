package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// ignorePrefix introduces a suppression directive:
//
//	//actoplint:ignore <analyzer> <reason>
//
// On its own line the directive applies to the next line; trailing code,
// it applies to its own line. The reason is mandatory and the analyzer
// name must exist — a malformed directive suppresses nothing and is
// itself reported (as pseudo-analyzer "actoplint", which cannot be
// suppressed), so every silenced finding carries an auditable why.
const ignorePrefix = "actoplint:ignore"

// DirectiveAnalyzer is the pseudo-analyzer name used for findings about
// the directives themselves.
const DirectiveAnalyzer = "actoplint"

type directive struct {
	name    string // analyzer the directive names
	reason  string
	file    string
	line    int  // line the directive sits on
	ownLine bool // nothing but whitespace precedes it
	bad     bool // malformed; reported, suppresses nothing
	badMsg  string
}

// scanDirectives extracts every actoplint:ignore directive in pkg,
// validating names against known (analyzer name -> present).
func scanDirectives(pkg *Package, known map[string]bool) []directive {
	var out []directive
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(pkg, c, known)
				if ok {
					out = append(out, d)
				}
			}
		}
	}
	return out
}

func parseDirective(pkg *Package, c *ast.Comment, known map[string]bool) (directive, bool) {
	if !strings.HasPrefix(c.Text, "//") {
		return directive{}, false // block comments don't carry directives
	}
	body := strings.TrimPrefix(c.Text, "//")
	if !strings.HasPrefix(body, ignorePrefix) {
		return directive{}, false
	}
	rest := strings.TrimPrefix(body, ignorePrefix)
	pos := pkg.Fset.Position(c.Slash)
	d := directive{file: pos.Filename, line: pos.Line}
	// Own-line when only whitespace precedes the comment on its line.
	src := pkg.Src[pos.Filename]
	lineStart := pos.Offset - (pos.Column - 1)
	d.ownLine = len(strings.TrimSpace(string(src[lineStart:pos.Offset]))) == 0
	fields := strings.Fields(rest)
	switch {
	case len(fields) == 0:
		d.bad, d.badMsg = true, "actoplint:ignore needs an analyzer name and a reason"
	case !known[fields[0]]:
		d.bad, d.badMsg = true, fmt.Sprintf("actoplint:ignore names unknown analyzer %q", fields[0])
	case len(fields) == 1:
		d.bad, d.badMsg = true, fmt.Sprintf("actoplint:ignore %s needs a reason", fields[0])
	default:
		d.name = fields[0]
		d.reason = strings.Join(fields[1:], " ")
	}
	return d, true
}

// targetLine reports the source line the directive suppresses.
func (d directive) targetLine() int {
	if d.ownLine {
		return d.line + 1
	}
	return d.line
}

// resolveDirectives drops findings covered by a well-formed directive
// and appends one DirectiveAnalyzer finding per malformed directive.
// With running non-nil, a well-formed directive that suppressed nothing
// is itself reported — suppressions must not rot in place as the code
// they silenced moves or gets fixed. Staleness is only judged for the
// analyzers running names: a directive naming an analyzer this run did
// not execute might suppress perfectly live findings of a full run.
func resolveDirectives(findings []Finding, dirs []directive, running map[string]bool) []Finding {
	type key struct {
		file string
		line int
		name string
	}
	// A line can carry duplicate directives; all of them claim a match.
	suppressed := map[key][]int{}
	used := make([]bool, len(dirs))
	var out []Finding
	for i, d := range dirs {
		if d.bad {
			out = append(out, Finding{
				Pos:      positionOnLine(d.file, d.line),
				Analyzer: DirectiveAnalyzer,
				Message:  d.badMsg,
			})
			continue
		}
		k := key{d.file, d.targetLine(), d.name}
		suppressed[k] = append(suppressed[k], i)
	}
	for _, f := range findings {
		if f.Analyzer != DirectiveAnalyzer {
			if idxs, ok := suppressed[key{f.Pos.Filename, f.Pos.Line, f.Analyzer}]; ok {
				for _, i := range idxs {
					used[i] = true
				}
				continue
			}
		}
		out = append(out, f)
	}
	for i, d := range dirs {
		if d.bad || used[i] || !running[d.name] {
			continue
		}
		out = append(out, Finding{
			Pos:      positionOnLine(d.file, d.line),
			Analyzer: DirectiveAnalyzer,
			Message: fmt.Sprintf("stale actoplint:ignore %s: it suppresses no finding on its target line — delete it, or re-anchor it to the code it was justifying (reason was: %s)",
				d.name, d.reason),
		})
	}
	return out
}

// positionOnLine fabricates a position for line-anchored findings (used
// for directive errors, which have no AST node).
func positionOnLine(file string, line int) token.Position {
	return token.Position{Filename: file, Line: line, Column: 1}
}
