package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// The effects engine is the shared machinery behind cross-package
// strengthening: for every function declared in a package it computes
// whether the function (transitively, through same-package calls and
// through imported facts) triggers some effect — turnblock's is "blocks"
// — together with a human-readable witness chain. The analyzer
// parameterizes it with its own traversal (which subtrees are on-path)
// and its own local/external detectors, then exports the summaries of
// exported functions as object facts for importers.

// A funcEffect is one function's summary: why it triggers the effect
// and the local position witnessing it.
type funcEffect struct {
	why string
	pos token.Pos
}

// packageFuncDecls collects the package's function bodies keyed by
// their object — the unit every whole-package analyzer walks.
func packageFuncDecls(pass *Pass) map[*types.Func]*ast.FuncDecl {
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}
	return decls
}

// sortedFuncs orders decl keys by source position for deterministic
// iteration (and so deterministic facts and messages).
func sortedFuncs(decls map[*types.Func]*ast.FuncDecl) []*types.Func {
	fns := make([]*types.Func, 0, len(decls))
	for fn := range decls {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].Pos() < fns[j].Pos() })
	return fns
}

// effectSummaries computes, for every declared function, the first
// reason (in source order) it triggers the effect:
//
//   - local(n) detects the effect directly at an AST node;
//   - external(fn, call) detects it at a call whose callee has no local
//     body — typically by importing a fact the callee's package
//     exported;
//   - visit bounds the search to on-path subtrees (e.g. skipping
//     go-statement bodies).
//
// Effects then propagate through same-package call edges to a fixpoint,
// producing "calls g: <g's why>" chains.
func effectSummaries(
	pass *Pass,
	decls map[*types.Func]*ast.FuncDecl,
	visit func(ast.Node, func(ast.Node)),
	local func(n ast.Node) (string, bool),
	external func(fn *types.Func, call *ast.CallExpr) (string, bool),
) map[*types.Func]funcEffect {
	type callEdge struct {
		pos    token.Pos
		callee *types.Func
	}
	summaries := map[*types.Func]funcEffect{}
	edges := map[*types.Func][]callEdge{}
	fns := sortedFuncs(decls)
	for _, fn := range fns {
		found := false
		visit(decls[fn].Body, func(n ast.Node) {
			if found {
				return
			}
			if why, ok := local(n); ok {
				summaries[fn] = funcEffect{why, n.Pos()}
				found = true
				return
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			callee := calleeFunc(pass.TypesInfo, call)
			if callee == nil {
				return
			}
			if _, isLocal := decls[callee]; isLocal {
				edges[fn] = append(edges[fn], callEdge{call.Pos(), callee})
				return
			}
			if external != nil {
				if why, ok := external(callee, call); ok {
					summaries[fn] = funcEffect{why, call.Pos()}
					found = true
				}
			}
		})
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			if _, ok := summaries[fn]; ok {
				continue
			}
			for _, e := range edges[fn] {
				if s, ok := summaries[e.callee]; ok {
					summaries[fn] = funcEffect{
						why: "calls " + funcDisplay(e.callee) + ": " + s.why,
						pos: e.pos,
					}
					changed = true
					break
				}
			}
		}
	}
	return summaries
}

// shortPos renders a position as file:line for embedding in fact Why
// strings (the witness the importing package's diagnostic points at).
func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}
