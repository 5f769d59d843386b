package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// SnapBlock polices the durability plane's hot-path contract: snapshot
// capture runs with the activation's turn lock held (captureSnapshotLocked
// is called from drain, between executing the turn and answering the
// caller), so everything it does synchronously lands on the caller's
// reply latency — the ±5% durability-overhead budget of PR 8. The cheap
// work (a state copy, counter bumps) belongs on that path; the expensive
// work (gob/codec encoding, transport sends, actor calls) must ride the
// closure the capture returns, which the caller hands to the snapshotter
// pool only after releasing the lock. The analyzer walks the static
// intra-package call graph from every capture*Locked function and flags
// encode and I/O calls that execute before the lock is released.
// Function-literal bodies are exempt — a closure built on the locked path
// runs wherever it is later invoked, which in this pattern is the
// off-turn pool — and goroutine bodies likewise run off the lock.
// Cross-package: every function whose synchronous (non-closure,
// non-goroutine) subtree encodes or performs I/O exports an
// EncodeIOFact, so a capture body calling a helper in another module
// package is flagged with the helper's witness chain.
var SnapBlock = &Analyzer{
	Name: "snapblock",
	Doc:  "no encode (codec/gob/json) or I/O (transport send, actor call) reachable from a turn-locked snapshot capture (capture*Locked), including through helpers in other module packages (EncodeIOFact); defer it to the returned closure, which runs on the snapshotter pool",
	Run:  runSnapBlock,
}

// EncodeIOFact marks an exported function that (transitively, on its
// synchronous path) encodes or performs I/O. Kind is "encode" or "io";
// Why is the witness chain.
type EncodeIOFact struct {
	Kind string
	Why  string
}

func (*EncodeIOFact) AFact() {}

func runSnapBlock(pass *Pass) error {
	decls := packageFuncDecls(pass)
	exportEncodeIOFacts(pass, decls)
	// Roots: the turn-locked capture entry points, matched by the naming
	// convention the runtime uses (captureSnapshotLocked and siblings).
	// The *Locked suffix is the repo-wide marker for "caller holds the
	// lock"; the capture prefix scopes this analyzer to the snapshot path
	// rather than every locked helper.
	type reachInfo struct {
		parent *types.Func
		root   *types.Func
	}
	reach := map[*types.Func]reachInfo{}
	var queue []*types.Func
	for fn := range decls {
		if isCaptureLocked(fn) {
			reach[fn] = reachInfo{nil, fn}
			queue = append(queue, fn)
		}
	}
	sort.Slice(queue, func(i, j int) bool { return queue[i].Pos() < queue[j].Pos() })
	// BFS over static same-package calls made while the lock is held:
	// go-statement and function-literal subtrees execute off the locked
	// path and contribute no edges (argument expressions of a go call,
	// which do evaluate inline, still do).
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		info := reach[fn]
		forEachLockedNode(decls[fn].Body, func(n ast.Node) {
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
	for fn, info := range reach {
		chain := chainString(fn, func(f *types.Func) *types.Func {
			return reach[f].parent
		})
		root := info.root
		where := "in turn-locked capture " + funcDisplay(root)
		if fn != root {
			where = "reachable from turn-locked capture " + funcDisplay(root) + " via " + chain
		}
		scanSnapCalls(pass, decls[fn].Body, where)
	}
	return nil
}

// isCaptureLocked matches the snapshot-capture naming convention:
// capture...Locked.
func isCaptureLocked(fn *types.Func) bool {
	n := fn.Name()
	return strings.HasPrefix(n, "capture") && strings.HasSuffix(n, "Locked")
}

// forEachLockedNode visits every node that executes while the capture
// holds the turn lock: it skips go-statement bodies and function literals
// (both run later, off the lock) while still visiting a go call's
// argument expressions, which evaluate inline.
func forEachLockedNode(body ast.Node, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case nil:
			return false
		case *ast.GoStmt:
			for _, a := range n.Call.Args {
				forEachLockedNode(a, visit)
			}
			return false
		case *ast.FuncLit:
			return false
		}
		visit(n)
		return true
	})
}

// scanSnapCalls flags encode and I/O calls in one on-lock body.
func scanSnapCalls(pass *Pass, body ast.Node, where string) {
	forEachLockedNode(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		fn := calleeFunc(pass.TypesInfo, call)
		if fn == nil {
			return
		}
		switch {
		case isEncodeCall(fn):
			pass.Reportf(call.Pos(),
				"%s encodes %s; the blocked caller's reply waits on it — copy state under the lock and encode in the returned closure (snapshotter pool)", encodeKind(fn), where)
		case fn.Name() == "Send" && pathHasSegment(funcPkgPath(fn), "transport"):
			pass.Reportf(call.Pos(),
				"transport send %s stalls the turn lock while a peer is slow; ship from the returned closure (snapshotter pool)", where)
		case isActorCallMethod(fn):
			pass.Reportf(call.Pos(),
				"actor call (%s.%s) %s holds the turn lock across a round trip — and can deadlock if the callee needs this activation; call from the returned closure", recvTypeName(fn), fn.Name(), where)
		default:
			// Cross-package: the callee's own package proved it encodes
			// or does I/O on its synchronous path.
			if fn.Pkg() == pass.Pkg {
				return // local callees: the BFS walks their bodies
			}
			var ef EncodeIOFact
			if pass.ImportObjectFact(fn, &ef) {
				verb := "performs I/O"
				if ef.Kind == "encode" {
					verb = "encodes"
				}
				pass.Reportf(call.Pos(),
					"%s.%s %s %s: %s; the blocked caller's reply waits on it — defer it to the returned closure (snapshotter pool)",
					lastSegment(funcPkgPath(fn)), funcDisplay(fn), verb, where, ef.Why)
			}
		}
	})
}

// exportEncodeIOFacts summarizes every declared function's synchronous
// encode/I-O behavior and exports facts for the exported ones. Encode
// and I/O propagate as separate fixpoints so the fact keeps its kind.
func exportEncodeIOFacts(pass *Pass, decls map[*types.Func]*ast.FuncDecl) {
	factOf := func(wantKind string) func(*types.Func, *ast.CallExpr) (string, bool) {
		return func(callee *types.Func, call *ast.CallExpr) (string, bool) {
			var ef EncodeIOFact
			if pass.ImportObjectFact(callee, &ef) && ef.Kind == wantKind {
				return "calls " + lastSegment(funcPkgPath(callee)) + "." + funcDisplay(callee) + ": " + ef.Why, true
			}
			return "", false
		}
	}
	encodes := effectSummaries(pass, decls, forEachLockedNode,
		func(n ast.Node) (string, bool) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return "", false
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || !isEncodeCall(fn) {
				return "", false
			}
			return encodeKind(fn), true
		},
		factOf("encode"))
	ios := effectSummaries(pass, decls, forEachLockedNode,
		func(n ast.Node) (string, bool) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return "", false
			}
			fn := calleeFunc(pass.TypesInfo, call)
			switch {
			case fn == nil:
				return "", false
			case fn.Name() == "Send" && pathHasSegment(funcPkgPath(fn), "transport"):
				return "transport send", true
			case isActorCallMethod(fn):
				return "actor call " + recvTypeName(fn) + "." + fn.Name(), true
			}
			return "", false
		},
		factOf("io"))
	for _, fn := range sortedFuncs(decls) {
		if s, ok := encodes[fn]; ok {
			pass.ExportObjectFact(fn, &EncodeIOFact{Kind: "encode", Why: s.why + " (" + shortPos(pass.Fset, s.pos) + ")"})
		} else if s, ok := ios[fn]; ok {
			pass.ExportObjectFact(fn, &EncodeIOFact{Kind: "io", Why: s.why + " (" + shortPos(pass.Fset, s.pos) + ")"})
		}
	}
}

// isEncodeCall matches serialization entry points: the repo's codec
// package (Marshal/Unmarshal), the durable wire-record encoder
// (AppendRecord/DecodeRecord), and stdlib gob/json encoders.
func isEncodeCall(fn *types.Func) bool {
	switch funcPkgPath(fn) {
	case "encoding/gob", "encoding/json":
		switch fn.Name() {
		case "Encode", "Decode", "Marshal", "Unmarshal":
			return true
		}
		return false
	}
	if pathHasSegment(funcPkgPath(fn), "codec") {
		return fn.Name() == "Marshal" || fn.Name() == "Unmarshal"
	}
	if pathHasSegment(funcPkgPath(fn), "durable") {
		return fn.Name() == "AppendRecord" || fn.Name() == "DecodeRecord"
	}
	return false
}

// encodeKind names the encode family for the diagnostic.
func encodeKind(fn *types.Func) string {
	switch p := funcPkgPath(fn); p {
	case "encoding/gob", "encoding/json":
		return lastSegment(p) + "." + fn.Name()
	default:
		return lastSegment(funcPkgPath(fn)) + "." + fn.Name()
	}
}
