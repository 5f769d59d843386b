package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// TurnBlock enforces the actor model's cardinal scheduling rule: a turn
// (a Receive/ReceiveValue body, and everything it calls synchronously)
// must never block. A blocked turn pins a worker-stage thread, starves
// co-located activations, skews the thread controller's service-time
// measurements, and — when the blocking is a re-entrant System.Call —
// can deadlock the whole stage, exactly the overload collapse §4 of the
// paper engineers against. The analyzer finds every method implementing
// the actor contract, walks the static intra-package call graph from it,
// and flags time.Sleep, WaitGroup/Cond waits, bare channel receives,
// selects without default, and re-entrant System.Call in anything
// reachable. Goroutines spawned from a turn run off-turn and are exempt;
// Context.Call is the runtime's sanctioned await and stays legal.
//
// Cross-package: every function whose on-turn subtree (transitively)
// blocks exports a BlockerFact, so a Receive body calling an innocuous-
// looking helper in another module package is flagged with the helper's
// witness chain — the class the old per-package analyzer could not see.
var TurnBlock = &Analyzer{
	Name: "turnblock",
	Doc:  "no blocking operations (time.Sleep, WaitGroup.Wait, bare channel receive, select without default, re-entrant System.Call) reachable from an actor turn, including through helpers in other module packages (BlockerFact)",
	Run:  runTurnBlock,
}

// BlockerFact marks an exported function that (transitively) performs a
// blocking operation when called synchronously. Why is the witness
// chain ending in the concrete operation and its position.
type BlockerFact struct{ Why string }

func (*BlockerFact) AFact() {}

func runTurnBlock(pass *Pass) error {
	// Collect the package's function bodies, keyed by their object.
	decls := packageFuncDecls(pass)
	// Export blocking summaries for every declared function — importers
	// check them at call sites inside turns. This runs on every module
	// package (not just ones with turns): internal/codec has no actors,
	// but a blocking codec helper must still carry its fact.
	blockers := effectSummaries(pass, decls, forEachOnTurnNode,
		func(n ast.Node) (string, bool) { return blockingOpWhy(pass, n) },
		func(fn *types.Func, call *ast.CallExpr) (string, bool) {
			if isSanctionedAwait(fn) {
				return "", false
			}
			var bf BlockerFact
			if pass.ImportObjectFact(fn, &bf) {
				return "calls " + lastSegment(funcPkgPath(fn)) + "." + funcDisplay(fn) + ": " + bf.Why, true
			}
			return "", false
		})
	for _, fn := range sortedFuncs(decls) {
		if s, ok := blockers[fn]; ok {
			pass.ExportObjectFact(fn, &BlockerFact{Why: s.why + " (" + shortPos(pass.Fset, s.pos) + ")"})
		}
	}
	// Roots: methods implementing the actor turn contract.
	type reachInfo struct {
		parent *types.Func
		root   *types.Func
	}
	reach := map[*types.Func]reachInfo{}
	var queue []*types.Func
	for fn := range decls {
		if isTurnMethod(fn) {
			reach[fn] = reachInfo{nil, fn}
			queue = append(queue, fn)
		}
	}
	// Deterministic BFS (and so deterministic chains in messages):
	// process roots in source order.
	sort.Slice(queue, func(i, j int) bool { return queue[i].Pos() < queue[j].Pos() })
	// BFS over static same-package calls; go-statement subtrees are
	// off-turn and contribute no edges (their argument expressions,
	// which evaluate on-turn, still do).
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		info := reach[fn]
		forEachOnTurnNode(decls[fn].Body, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			callee := calleeFunc(pass.TypesInfo, call)
			if callee == nil {
				return
			}
			if _, hasBody := decls[callee]; !hasBody {
				return
			}
			if _, seen := reach[callee]; seen {
				return
			}
			reach[callee] = reachInfo{fn, info.root}
			queue = append(queue, callee)
		})
	}
	// Scan every reached body for blocking operations.
	for fn, info := range reach {
		chain := chainString(fn, func(f *types.Func) *types.Func {
			return reach[f].parent
		})
		root := info.root
		where := "in actor turn " + funcDisplay(root)
		if fn != root {
			where = "reachable from actor turn " + funcDisplay(root) + " via " + chain
		}
		scanBlocking(pass, decls[fn].Body, where)
	}
	return nil
}

// isTurnMethod matches the actor contract: a method named Receive or
// ReceiveValue whose first parameter is a *Context from an actor-ish
// package. Matching structurally (not against the interface object)
// keeps the analyzer usable on fixtures and on future actor variants.
func isTurnMethod(fn *types.Func) bool {
	if fn.Name() != "Receive" && fn.Name() != "ReceiveValue" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Params().Len() == 0 {
		return false
	}
	first := sig.Params().At(0).Type()
	ptr, ok := first.(*types.Pointer)
	if !ok {
		return false
	}
	return namedName(ptr.Elem()) == "Context" &&
		pathHasSegment(namedPkgPath(ptr.Elem()), "actor")
}

// forEachOnTurnNode visits every node that executes on the turn's
// thread: it skips go-statement function bodies (off-turn) while still
// visiting their argument expressions, and skips nothing else.
func forEachOnTurnNode(body ast.Node, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if g, ok := n.(*ast.GoStmt); ok {
			for _, a := range g.Call.Args {
				forEachOnTurnNode(a, visit)
			}
			return false
		}
		visit(n)
		return true
	})
}

// scanBlocking reports blocking operations in one on-turn body.
func scanBlocking(pass *Pass, body ast.Node, where string) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case nil:
			return false
		case *ast.GoStmt:
			for _, a := range n.Call.Args {
				ast.Inspect(a, walk)
			}
			return false
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				pass.Reportf(n.Pos(),
					"select without default blocks until a case fires, %s; actor turns must never block — poll with a default case or move the wait off-turn", where)
			}
			// Clause bodies still run on-turn; the comm operations
			// themselves were judged with the select.
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					for _, s := range cc.Body {
						ast.Inspect(s, walk)
					}
				}
			}
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pass.Reportf(n.Pos(),
					"bare channel receive blocks %s; actor turns must never block — use Context.Call or a select with default", where)
			}
		case *ast.CallExpr:
			checkBlockingCall(pass, n, where)
		}
		return true
	}
	ast.Inspect(body, walk)
}

func checkBlockingCall(pass *Pass, call *ast.CallExpr, where string) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	switch {
	case isPkgFunc(fn, "time", "Sleep"):
		pass.Reportf(call.Pos(),
			"time.Sleep blocks the worker thread %s; actor turns must never block — use the runtime's scheduling instead", where)
	case funcPkgPath(fn) == "sync" && fn.Name() == "Wait" &&
		(recvTypeName(fn) == "WaitGroup" || recvTypeName(fn) == "Cond"):
		pass.Reportf(call.Pos(),
			"sync.%s.Wait blocks %s; actor turns must never block — fan in through actor messages instead", recvTypeName(fn), where)
	case fn.Name() == "Call" && recvTypeName(fn) == "System" &&
		pathHasSegment(funcPkgPath(fn), "actor"):
		pass.Reportf(call.Pos(),
			"re-entrant System.Call %s deadlocks when the callee (transitively) needs this activation; call through Context.Call, which threads the turn's identity", where)
	default:
		// Cross-package: the callee's own package proved it blocks. Local
		// callees are excluded — the BFS already walks into their bodies
		// and reports the concrete operation there.
		if isSanctionedAwait(fn) || fn.Pkg() == pass.Pkg {
			return
		}
		var bf BlockerFact
		if pass.ImportObjectFact(fn, &bf) {
			pass.Reportf(call.Pos(),
				"%s.%s blocks %s: %s; actor turns must never block", lastSegment(funcPkgPath(fn)), funcDisplay(fn), where, bf.Why)
		}
	}
}

// blockingOpWhy is the local blocking detector shared with the fact
// exporter: it mirrors scanBlocking's judgments as witness strings.
func blockingOpWhy(pass *Pass, n ast.Node) (string, bool) {
	switch n := n.(type) {
	case *ast.SelectStmt:
		for _, c := range n.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				return "", false
			}
		}
		return "select without default", true
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			return "bare channel receive", true
		}
	case *ast.CallExpr:
		fn := calleeFunc(pass.TypesInfo, n)
		if fn == nil {
			return "", false
		}
		switch {
		case isPkgFunc(fn, "time", "Sleep"):
			return "time.Sleep", true
		case funcPkgPath(fn) == "sync" && fn.Name() == "Wait" &&
			(recvTypeName(fn) == "WaitGroup" || recvTypeName(fn) == "Cond"):
			return "sync." + recvTypeName(fn) + ".Wait", true
		case fn.Name() == "Call" && recvTypeName(fn) == "System" &&
			pathHasSegment(funcPkgPath(fn), "actor"):
			return "System.Call", true
		}
	}
	return "", false
}

// isSanctionedAwait exempts the runtime's own await surface: Context
// methods (Call and friends) block by design under the scheduler's
// control, so a BlockerFact on them — or imported for them — must never
// indict the turns that use them.
func isSanctionedAwait(fn *types.Func) bool {
	return recvTypeName(fn) == "Context" && pathHasSegment(funcPkgPath(fn), "actor")
}

// chainString renders root → ... → fn as the call path the BFS found.
func chainString(fn *types.Func, parent func(*types.Func) *types.Func) string {
	var parts []string
	for f := fn; f != nil; f = parent(f) {
		parts = append(parts, funcDisplay(f))
	}
	// Reverse into root-first order.
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts[1:], " → ")
}

// funcDisplay renders (*T).Name for methods, Name for functions.
func funcDisplay(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return fn.Name()
	}
	return "(" + namedName(sig.Recv().Type()) + ")." + fn.Name()
}
