package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// LockHeldIO bans I/O while a mutex is held — the deadlock-under-failure
// class behind PR 3's split-brain bugs: a transport send (or a full
// actor call) made with a lock held stalls when the peer is partitioned,
// the lock pins every other goroutine that needs it, and the failure
// detector's remediation path is among them. The analyzer is
// source-ordered: within one function it tracks Lock/RLock...Unlock
// windows (defer Unlock holds to function end) and flags transport
// sends, actor-system calls, and channel sends inside them.
//
// The window tracking is one hop interprocedural, both directions:
//
//   - a call to a same-package lock helper (a method whose body's net
//     effect is acquiring its receiver's mutex) opens the window, and
//     its unlock twin closes it, so s.lockState()/s.unlockState()
//     pairs are seen through;
//   - a call to a function that itself directly performs I/O — same
//     package, or another module package via its exported DirectIOFact
//     — is flagged inside a window, with the callee's witness. The
//     callee-side scan honors the select+default exemption: a helper
//     whose only send is a non-blocking fast path stays clean.
var LockHeldIO = &Analyzer{
	Name: "lockheldio",
	Doc:  "no transport send, actor-system call, or channel send while a sync.Mutex/RWMutex is held, including one call hop away (DirectIOFact)",
	Run:  runLockHeldIO,
}

// DirectIOFact marks an exported function that directly performs I/O —
// a transport send, an actor call, or a blocking channel send — on its
// synchronous path.
type DirectIOFact struct{ Why string }

func (*DirectIOFact) AFact() {}

func runLockHeldIO(pass *Pass) error {
	decls := packageFuncDecls(pass)
	directIO := map[*types.Func]string{}
	helperLock := map[*types.Func]string{}
	helperUnlock := map[*types.Func]string{}
	for _, fn := range sortedFuncs(decls) {
		if why, ok := directIOWhy(pass, decls[fn].Body); ok {
			directIO[fn] = why
			pass.ExportObjectFact(fn, &DirectIOFact{Why: why})
		}
		if suffix, acquire, ok := lockHelperEffect(pass, decls[fn]); ok {
			if acquire {
				helperLock[fn] = suffix
			} else {
				helperUnlock[fn] = suffix
			}
		}
	}
	for _, fn := range sortedFuncs(decls) {
		ls := &lockScan{
			pass: pass, held: map[string]bool{},
			directIO: directIO, helperLock: helperLock, helperUnlock: helperUnlock,
		}
		ls.walkStmts(decls[fn].Body.List)
	}
	return nil
}

type lockScan struct {
	pass *Pass
	// held maps the receiver expression text of a locked mutex
	// ("s.mu", "c.state.mu") to true while the lock is held in source
	// order. Branch bodies share the map: a sequential
	// over-approximation.
	held map[string]bool
	// Same-package one-hop knowledge, precomputed per package.
	directIO     map[*types.Func]string
	helperLock   map[*types.Func]string // fn -> mutex suffix (".mu")
	helperUnlock map[*types.Func]string
}

// lockMethods classifies sync mutex methods. TryLock is treated as an
// acquire (flow past it usually assumes success).
var lockAcquire = map[string]bool{"Lock": true, "RLock": true, "TryLock": true, "TryRLock": true}
var lockRelease = map[string]bool{"Unlock": true, "RUnlock": true}

// mutexMethod matches sel against (*sync.Mutex)/(*sync.RWMutex) methods,
// returning the lock's receiver expression text.
func (ls *lockScan) mutexMethod(call *ast.CallExpr) (recvText, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn := calleeFunc(ls.pass.TypesInfo, call)
	if fn == nil || funcPkgPath(fn) != "sync" {
		return "", "", false
	}
	rt := recvTypeName(fn)
	if rt != "Mutex" && rt != "RWMutex" {
		return "", "", false
	}
	return types.ExprString(sel.X), fn.Name(), true
}

func (ls *lockScan) walkStmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		ls.walkStmt(s)
	}
}

func (ls *lockScan) walkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if recv, m, ok := ls.callStmtMutex(s.X); ok {
			if lockAcquire[m] {
				ls.held[recv] = true
			} else if lockRelease[m] {
				delete(ls.held, recv)
			}
			return
		}
		if key, acquire, ok := ls.helperCall(s.X); ok {
			if acquire {
				ls.held[key] = true
			} else {
				delete(ls.held, key)
			}
			return
		}
		ls.checkExpr(s.X)
	case *ast.DeferStmt:
		// defer mu.Unlock(): the lock stays held to function end — which
		// is exactly the window the check cares about, so nothing to do.
		// Same for a deferred unlock helper. Other deferred calls run
		// after the lock region logic this scan models; skip them rather
		// than mis-attribute.
		if _, m, ok := ls.mutexMethod(s.Call); ok && lockRelease[m] {
			return
		}
		if _, acquire, ok := ls.helperCall(s.Call); ok && !acquire {
			return
		}
	case *ast.GoStmt:
		// A spawned goroutine does not hold the caller's locks; its body
		// gets a fresh scan.
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			inner := &lockScan{
				pass: ls.pass, held: map[string]bool{},
				directIO: ls.directIO, helperLock: ls.helperLock, helperUnlock: ls.helperUnlock,
			}
			inner.walkStmts(lit.Body.List)
		}
		for _, a := range s.Call.Args {
			ls.checkExpr(a)
		}
	case *ast.SendStmt:
		if len(ls.held) > 0 {
			ls.pass.Reportf(s.Arrow,
				"channel send while %s is held; a full channel blocks with the lock pinned — send after unlocking", ls.heldNames())
		}
		ls.checkExpr(s.Chan)
		ls.checkExpr(s.Value)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			ls.checkExpr(r)
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			ls.checkExpr(r)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			ls.walkStmt(s.Init)
		}
		ls.checkExpr(s.Cond)
		ls.walkStmt(s.Body)
		if s.Else != nil {
			ls.walkStmt(s.Else)
		}
	case *ast.BlockStmt:
		ls.walkStmts(s.List)
	case *ast.ForStmt:
		if s.Init != nil {
			ls.walkStmt(s.Init)
		}
		ls.walkStmt(s.Body)
	case *ast.RangeStmt:
		ls.checkExpr(s.X)
		ls.walkStmt(s.Body)
	case *ast.SwitchStmt:
		if s.Init != nil {
			ls.walkStmt(s.Init)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				ls.walkStmts(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				ls.walkStmts(cc.Body)
			}
		}
	case *ast.SelectStmt:
		// A select with a default clause never blocks, so its comm
		// sends are safe under a lock (the seda Submit fast path).
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				if len(ls.held) > 0 && !hasDefault {
					if snd, isSend := cc.Comm.(*ast.SendStmt); isSend {
						ls.pass.Reportf(snd.Arrow,
							"channel send (blocking select case) while %s is held; send after unlocking or add a default case", ls.heldNames())
					}
				}
				ls.walkStmts(cc.Body)
			}
		}
	case *ast.LabeledStmt:
		ls.walkStmt(s.Stmt)
	}
}

// callStmtMutex matches a statement-level mutex call.
func (ls *lockScan) callStmtMutex(e ast.Expr) (string, string, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", "", false
	}
	return ls.mutexMethod(call)
}

// checkExpr flags I/O calls nested anywhere in an expression evaluated
// while locks are held. Function literals are skipped: they execute
// later, under whatever locks their caller then holds.
func (ls *lockScan) checkExpr(e ast.Expr) {
	if e == nil || len(ls.held) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(ls.pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		switch {
		case fn.Name() == "Send" && pathHasSegment(funcPkgPath(fn), "transport"):
			ls.pass.Reportf(call.Pos(),
				"transport send while %s is held; an unreachable peer stalls the send and deadlocks every goroutine contending for the lock (PR 3 split-brain class)", ls.heldNames())
		case isActorCallMethod(fn):
			ls.pass.Reportf(call.Pos(),
				"actor call (%s.%s) while %s is held; the callee may need this node — and this lock — to make progress", recvTypeName(fn), fn.Name(), ls.heldNames())
		default:
			// One hop: a callee that itself directly performs I/O —
			// same package (precomputed) or another module package
			// (DirectIOFact).
			if why, ok := ls.directIO[fn]; ok {
				ls.pass.Reportf(call.Pos(),
					"call to %s while %s is held; it %s — the lock pins every contender while that stalls", funcDisplay(fn), ls.heldNames(), why)
				return true
			}
			if fn.Pkg() != ls.pass.Pkg {
				var df DirectIOFact
				if ls.pass.ImportObjectFact(fn, &df) {
					ls.pass.Reportf(call.Pos(),
						"call to %s.%s while %s is held; it %s — the lock pins every contender while that stalls", lastSegment(funcPkgPath(fn)), funcDisplay(fn), ls.heldNames(), df.Why)
				}
			}
		}
		return true
	})
}

// helperCall matches a call to a same-package lock/unlock helper,
// returning the caller-side held key ("s.state" + ".mu").
func (ls *lockScan) helperCall(e ast.Expr) (key string, acquire bool, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", false, false
	}
	fn := calleeFunc(ls.pass.TypesInfo, call)
	if fn == nil {
		return "", false, false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	if suffix, isLock := ls.helperLock[fn]; isLock {
		return types.ExprString(sel.X) + suffix, true, true
	}
	if suffix, isUnlock := ls.helperUnlock[fn]; isUnlock {
		return types.ExprString(sel.X) + suffix, false, true
	}
	return "", false, false
}

// lockHelperEffect recognizes methods whose whole job is taking or
// releasing their receiver's mutex: the net effect of the body's
// top-level statements is exactly one acquire (and no I/O) or one
// release of a receiver-rooted mutex. The returned suffix is the mutex
// path relative to the receiver (".mu", ".state.mu"), so the caller can
// rebase it onto its own receiver expression.
func lockHelperEffect(pass *Pass, fd *ast.FuncDecl) (suffix string, acquire, ok bool) {
	if fd.Recv == nil || len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
		return "", false, false
	}
	recvName := fd.Recv.List[0].Names[0].Name
	net := map[string]int{}
	ls := &lockScan{pass: pass}
	for _, s := range fd.Body.List {
		var call *ast.CallExpr
		switch s := s.(type) {
		case *ast.ExprStmt:
			call, _ = ast.Unparen(s.X).(*ast.CallExpr)
		case *ast.DeferStmt:
			// A deferred unlock makes this a scoped (lock-around-body)
			// helper, not an open-the-window helper.
			if _, m, isMutex := ls.mutexMethod(s.Call); isMutex && lockRelease[m] {
				return "", false, false
			}
		}
		if call == nil {
			continue
		}
		recv, m, isMutex := ls.mutexMethod(call)
		if !isMutex || !strings.HasPrefix(recv, recvName+".") {
			continue
		}
		if lockAcquire[m] {
			net[recv[len(recvName):]]++
		} else if lockRelease[m] {
			net[recv[len(recvName):]]--
		}
	}
	if len(net) != 1 {
		return "", false, false
	}
	for s, n := range net {
		switch {
		case n > 0:
			return s, true, true
		case n < 0:
			return s, false, true
		}
	}
	return "", false, false
}

// directIOWhy reports whether body directly performs I/O on its
// synchronous path — a transport send, an actor call, or a channel send
// that can block (the select+default fast path is exempt). Function
// literals and goroutine bodies run elsewhere and are skipped.
func directIOWhy(pass *Pass, body ast.Node) (string, bool) {
	why := ""
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if why != "" || n == nil {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range n.Body.List {
				if cc, isComm := c.(*ast.CommClause); isComm && cc.Comm == nil {
					hasDefault = true
				}
			}
			for _, c := range n.Body.List {
				cc, isComm := c.(*ast.CommClause)
				if !isComm {
					continue
				}
				if snd, isSend := cc.Comm.(*ast.SendStmt); isSend && !hasDefault {
					why = "performs a blocking channel send at " + shortPos(pass.Fset, snd.Arrow)
				}
				for _, s := range cc.Body {
					ast.Inspect(s, walk)
				}
			}
			return false
		case *ast.SendStmt:
			why = "performs a channel send at " + shortPos(pass.Fset, n.Arrow)
			return false
		case *ast.CallExpr:
			fn := calleeFunc(pass.TypesInfo, n)
			if fn == nil {
				return true
			}
			switch {
			case fn.Name() == "Send" && pathHasSegment(funcPkgPath(fn), "transport"):
				why = "sends on the transport at " + shortPos(pass.Fset, n.Pos())
			case isActorCallMethod(fn):
				why = "makes an actor call (" + recvTypeName(fn) + "." + fn.Name() + ") at " + shortPos(pass.Fset, n.Pos())
			}
		}
		return true
	}
	ast.Inspect(body, walk)
	return why, why != ""
}

// isActorCallMethod matches the actor system's synchronous call entry
// points: Call on System/Context, and the control-plane variants.
func isActorCallMethod(fn *types.Func) bool {
	if !pathHasSegment(funcPkgPath(fn), "actor") {
		return false
	}
	rt := recvTypeName(fn)
	if rt != "System" && rt != "Context" {
		return false
	}
	switch fn.Name() {
	case "Call", "call", "controlCall", "controlCallT":
		return true
	}
	return false
}

func (ls *lockScan) heldNames() string {
	names := make([]string, 0, len(ls.held))
	for n := range ls.held {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
