package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// PoolEscape guards the codec buffer pool's ownership contract
// (DESIGN.md "Buffer-pool ownership rules"): a buffer obtained from
// codec.GetBuffer may be handed back with codec.PutBuffer only when no
// other live reference to it (or any slice of it) remains. The analyzer
// works per function: it tracks which locals hold pooled buffers
// (GetBuffer results, threaded through MarshalAppend) and reports
// (a) any use of the variable after the PutBuffer call, and (b) any
// aliasing store — field/global assignment, channel send, capture by a
// spawned goroutine — of a buffer the function also releases, since the
// retained alias dangles into the pool's next user. Returning a pooled
// buffer transfers ownership and stays legal.
// transport.Release(env) ends env and env.Payload the same way: a local
// envelope the function releases is tracked like a buffer it puts back, and
// env.Payload counts as an alias of it.
// Cross-package: a function that stashes a []byte parameter (stores it
// in a field, a container, a global, or sends it on a channel) exports
// a RetainsFact naming the parameter indices, so passing a pooled
// buffer to a retaining function in another module package counts as an
// escape at the call site.
var PoolEscape = &Analyzer{
	Name: "poolescape",
	Doc:  "pooled codec buffers and released transport envelopes must not be used after PutBuffer/Release nor escape through an alias that outlives their release — including via a callee that retains its []byte argument (RetainsFact)",
	Run:  runPoolEscape,
}

// RetainsFact marks an exported function that retains one or more of
// its []byte parameters beyond the call: Params holds their indices.
type RetainsFact struct{ Params []int }

func (*RetainsFact) AFact() {}

func runPoolEscape(pass *Pass) error {
	decls := packageFuncDecls(pass)
	retains := map[*types.Func][]int{}
	for _, fn := range sortedFuncs(decls) {
		if idx := retainedByteParams(pass, fn, decls[fn]); len(idx) > 0 {
			retains[fn] = idx
			pass.ExportObjectFact(fn, &RetainsFact{Params: idx})
		}
	}
	for _, fn := range sortedFuncs(decls) {
		checkPoolFunc(pass, decls[fn].Body, retains)
	}
	return nil
}

// retainedByteParams reports which []byte parameters of fd escape the
// call: stored into a field, container element, or package variable, or
// sent on a channel.
func retainedByteParams(pass *Pass, fn *types.Func, fd *ast.FuncDecl) []int {
	sig := fn.Type().(*types.Signature)
	paramIndex := map[*types.Var]int{}
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if s, ok := p.Type().Underlying().(*types.Slice); ok {
			if b, ok := s.Elem().Underlying().(*types.Basic); ok && b.Kind() == types.Uint8 {
				paramIndex[p] = i
			}
		}
	}
	if len(paramIndex) == 0 {
		return nil
	}
	retained := map[int]bool{}
	paramOf := func(e ast.Expr) (int, bool) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return 0, false
		}
		v, _ := pass.TypesInfo.Uses[id].(*types.Var)
		if v == nil {
			return 0, false
		}
		i, ok := paramIndex[v]
		return i, ok
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				pi, isParam := paramOf(rhs)
				if !isParam || i >= len(n.Lhs) {
					continue
				}
				switch lhs := ast.Unparen(n.Lhs[i]).(type) {
				case *ast.SelectorExpr, *ast.IndexExpr:
					retained[pi] = true
				case *ast.Ident:
					if v, ok := pass.TypesInfo.Uses[lhs].(*types.Var); ok &&
						v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
						retained[pi] = true
					}
				}
			}
		case *ast.SendStmt:
			if pi, isParam := paramOf(n.Value); isParam {
				retained[pi] = true
			}
		}
		return true
	})
	if len(retained) == 0 {
		return nil
	}
	var out []int
	for i := range retained {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// poolState tracks pooled buffer variables within one function.
type poolState struct {
	pass *Pass
	// pooled maps the *types.Var of a local to its state.
	pooled map[*types.Var]*bufState
}

type bufState struct {
	released bool // a non-deferred PutBuffer/Release has executed (source order)
	everPut  bool // PutBuffer/Release appears anywhere in the function (incl. defer)
	envelope bool // a *transport.Envelope ended by transport.Release, not a buffer
	escapes  []escape
}

// names returns the tracked object and the call that ends it, for diagnostics.
func (bs *bufState) names() (what, by string) {
	if bs.envelope {
		return "released envelope", "transport.Release"
	}
	return "pooled buffer", "codec.PutBuffer"
}

type escape struct {
	pos  ast.Node
	kind string
}

func checkPoolFunc(pass *Pass, body *ast.BlockStmt, retains map[*types.Func][]int) {
	st := &poolState{pass: pass, pooled: map[*types.Var]*bufState{}}
	// Pass 1: find pooled vars and whether each is ever released, so
	// escapes can be judged against releases later in source order.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			st.recordPooledAssign(n)
		case *ast.CallExpr:
			if v, envelope := st.endArg(n); v != nil && envelope {
				st.pooled[v] = &bufState{everPut: true, envelope: true}
			} else if bs, ok := st.pooled[v]; ok {
				bs.everPut = true
			}
		}
		return true
	})
	if len(st.pooled) == 0 {
		return
	}
	// Pass 1b: passing a pooled buffer to a callee that retains that
	// parameter (same package, or cross-package via RetainsFact) is an
	// aliasing escape at the call site.
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(st.pass.TypesInfo, call)
		if fn == nil || st.isCodecFunc(fn, "PutBuffer") || st.isCodecFunc(fn, "MarshalAppend") {
			return true
		}
		idx := retains[fn]
		if idx == nil {
			var rf RetainsFact
			if pass.ImportObjectFact(fn, &rf) {
				idx = rf.Params
			}
		}
		for _, i := range idx {
			if i >= len(call.Args) {
				continue
			}
			v := st.localVar(call.Args[i])
			if v == nil {
				continue
			}
			if bs, ok := st.pooled[v]; ok {
				bs.escapes = append(bs.escapes, escape{call, "is passed to " + funcDisplay(fn) + ", which retains it,"})
			}
		}
		return true
	})
	// Pass 2: walk statements in source order enforcing the two rules.
	st.walkStmts(body.List)
	for _, bs := range st.pooled {
		if !bs.everPut {
			continue // ownership kept or transferred; nothing dangles
		}
		what, by := bs.names()
		for _, e := range bs.escapes {
			st.pass.Reportf(e.pos.Pos(),
				"%s %s but is also returned to the pool with %s in this function; the retained alias will alias the pool's next user", what, e.kind, by)
		}
	}
}

// recordPooledAssign marks LHS locals pooled when the RHS is
// codec.GetBuffer() or codec.MarshalAppend(<pooled or GetBuffer>, ...).
func (st *poolState) recordPooledAssign(a *ast.AssignStmt) {
	if len(a.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(a.Rhs[0]).(*ast.CallExpr)
	if !ok || len(a.Lhs) == 0 {
		return
	}
	fn := calleeFunc(st.pass.TypesInfo, call)
	pooledResult := false
	switch {
	case st.isCodecFunc(fn, "GetBuffer"):
		pooledResult = true
	case st.isCodecFunc(fn, "MarshalAppend") && len(call.Args) > 0:
		arg := ast.Unparen(call.Args[0])
		if inner, ok := arg.(*ast.CallExpr); ok &&
			st.isCodecFunc(calleeFunc(st.pass.TypesInfo, inner), "GetBuffer") {
			pooledResult = true
		} else if v := st.localVar(arg); v != nil {
			_, pooledResult = st.pooled[v]
		}
	}
	if !pooledResult {
		return
	}
	if v := st.localVar(a.Lhs[0]); v != nil {
		if _, exists := st.pooled[v]; !exists {
			st.pooled[v] = &bufState{}
		}
	}
}

func (st *poolState) isCodecFunc(fn *types.Func, name string) bool {
	return fn != nil && fn.Name() == name && recvTypeName(fn) == "" &&
		pathHasSegment(funcPkgPath(fn), "codec")
}

// endArg returns the local whose life call ends — the buffer of a
// codec.PutBuffer, the envelope of a transport.Release — or nil.
func (st *poolState) endArg(call *ast.CallExpr) (v *types.Var, envelope bool) {
	fn := calleeFunc(st.pass.TypesInfo, call)
	envelope = fn != nil && fn.Name() == "Release" && recvTypeName(fn) == "" &&
		pathHasSegment(funcPkgPath(fn), "transport")
	if (!envelope && !st.isCodecFunc(fn, "PutBuffer")) || len(call.Args) != 1 {
		return nil, false
	}
	return st.localVar(call.Args[0]), envelope
}

// aliasOf resolves e to the tracked local it aliases: the local itself, or,
// for a released envelope env, env.Payload.
func (st *poolState) aliasOf(e ast.Expr) *types.Var {
	if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok && sel.Sel.Name == "Payload" {
		if v := st.localVar(sel.X); v != nil && st.pooled[v] != nil && st.pooled[v].envelope {
			return v
		}
	}
	return st.localVar(e)
}

// localVar resolves e to the *types.Var of a plain local identifier.
func (st *poolState) localVar(e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := st.pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = st.pass.TypesInfo.Defs[id]
	}
	v, _ := obj.(*types.Var)
	return v
}

// walkStmts enforces rule (a) use-after-release and collects rule (b)
// aliasing stores, visiting statements in source order. Branch bodies
// share the parent's state — a sequential over-approximation that is
// documented and suppressible.
func (st *poolState) walkStmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		st.walkStmt(s)
	}
}

func (st *poolState) walkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if v, _ := st.endArg(call); v != nil {
				if bs, ok := st.pooled[v]; ok {
					bs.released = true
				}
				return
			}
		}
		st.checkUses(s.X)
	case *ast.DeferStmt:
		// defer codec.PutBuffer(buf) is the blessed idiom: release at
		// return. Uses between here and return precede the release, so
		// rule (a) does not fire; rule (b) already covers aliases.
		if v, _ := st.endArg(s.Call); v != nil {
			return
		}
		st.checkUses(s.Call)
	case *ast.AssignStmt:
		st.recordPooledAssign(s)
		for _, rhs := range s.Rhs {
			st.checkUses(rhs)
		}
		st.checkAliasingStore(s)
		// Reassigning the variable itself re-arms it: x = codec.GetBuffer()
		// after a PutBuffer makes x live again.
		for _, lhs := range s.Lhs {
			if v := st.localVar(lhs); v != nil {
				if bs, ok := st.pooled[v]; ok {
					bs.released = false
				}
			}
		}
	case *ast.SendStmt:
		st.checkUses(s.Chan)
		st.checkUses(s.Value)
		if v := st.aliasOf(s.Value); v != nil {
			if bs, ok := st.pooled[v]; ok {
				bs.escapes = append(bs.escapes, escape{s, "is sent on a channel"})
			}
		}
	case *ast.GoStmt:
		// The spawned goroutine runs concurrently with (and often after)
		// the release; capturing a pooled buffer there is an escape.
		for v, bs := range st.pooled {
			if capturesVar(st.pass, s.Call, v) {
				bs.escapes = append(bs.escapes, escape{s, "is captured by a spawned goroutine"})
			}
		}
	case *ast.ReturnStmt:
		st.checkUsesNode(s) // return after PutBuffer is still use-after-release
	case *ast.BlockStmt:
		st.walkStmts(s.List)
	case *ast.IfStmt:
		if s.Init != nil {
			st.walkStmt(s.Init)
		}
		st.checkUses(s.Cond)
		st.walkStmt(s.Body)
		if s.Else != nil {
			st.walkStmt(s.Else)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			st.walkStmt(s.Init)
		}
		st.walkStmt(s.Body)
	case *ast.RangeStmt:
		st.checkUses(s.X)
		st.walkStmt(s.Body)
	case *ast.SwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				st.walkStmts(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				st.walkStmts(cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				st.walkStmts(cc.Body)
			}
		}
	default:
		if s != nil {
			st.checkUsesNode(s)
		}
	}
}

// checkAliasingStore records stores of a pooled local into anything that
// outlives the statement: struct fields, globals, slice/map elements.
func (st *poolState) checkAliasingStore(a *ast.AssignStmt) {
	for i, rhs := range a.Rhs {
		v := st.aliasOf(rhs)
		if v == nil {
			continue
		}
		bs, ok := st.pooled[v]
		if !ok || i >= len(a.Lhs) {
			continue
		}
		switch lhs := ast.Unparen(a.Lhs[i]).(type) {
		case *ast.SelectorExpr:
			bs.escapes = append(bs.escapes, escape{a, "is stored in a field"})
		case *ast.IndexExpr:
			bs.escapes = append(bs.escapes, escape{a, "is stored in a container element"})
		case *ast.Ident:
			if gv := st.localVar(lhs); gv != nil && gv.Pkg() != nil && gv.Parent() == gv.Pkg().Scope() {
				bs.escapes = append(bs.escapes, escape{a, "is stored in a package-level variable"})
			}
		}
	}
}

// checkUses reports rule (a): reads of a pooled local after its
// (non-deferred) PutBuffer.
func (st *poolState) checkUses(e ast.Expr) {
	if e == nil {
		return
	}
	st.checkUsesNode(e)
}

func (st *poolState) checkUsesNode(n ast.Node) {
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false // closure bodies run later; GoStmt handles capture
		}
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		v, _ := st.pass.TypesInfo.Uses[id].(*types.Var)
		if v == nil {
			return true
		}
		if bs, ok := st.pooled[v]; ok && bs.released {
			what, by := bs.names()
			st.pass.Reportf(id.Pos(),
				"use of %s %s after %s: the pool may already have handed it to another goroutine", what, id.Name, by)
		}
		return true
	})
}

// capturesVar reports whether the call (a go statement's function and
// arguments) references v.
func capturesVar(pass *Pass, call *ast.CallExpr, v *types.Var) bool {
	found := false
	ast.Inspect(call, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if uv, _ := pass.TypesInfo.Uses[id].(*types.Var); uv == v {
				found = true
			}
		}
		return !found
	})
	return found
}
