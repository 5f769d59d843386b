package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
)

// CallDag proves the actor-kind call graph is a DAG. A synchronous
// Context.Call from kind A's turn into kind B, paired with one from B
// back into A, deadlocks the moment both directions are in flight on
// the real runtime: each turn holds its activation's turn lock while
// awaiting the other (the ctlStage livelock of the control-plane PR was
// exactly this shape, hidden across two packages that never import each
// other). CallDag rejects such cycles in code, at kind granularity.
//
// Per package, Run records which kinds the package registers (the
// factory's concrete type binds a Go type to a kind string) and which
// kinds each turn synchronously calls (Context.Call/System.Call sites
// whose Ref argument has a statically-constant Type field, directly, via
// a local variable, or via a constructor carrying a RefKindFact). The
// Finish pass unions every package's fact — no import edge is needed
// between the cycle's participants — and three-colors the kind graph;
// any back edge is reported at the call site that closes the cycle.
//
// Limitation, by design: Ref values whose Type field is computed
// dynamically contribute no edge.
var CallDag = &Analyzer{
	Name:   "calldag",
	Doc:    "synchronous actor calls must form a DAG at kind level; a kind-level cycle (A's turn calls B, B's calls A) deadlocks both activations on the real runtime",
	Run:    runCallDag,
	Finish: finishCallDag,
}

// A KindReg binds a concrete actor type to the kind string it was
// registered under.
type KindReg struct {
	Kind     string
	TypePkg  string
	TypeName string
	Site     Site
}

// A KindEdge is one synchronous call from a turn of FromType into kind
// ToKind.
type KindEdge struct {
	FromPkg  string
	FromType string
	ToKind   string
	Site     Site
}

// CallDagFact is the package fact CallDag exports: every kind
// registration and every constant-kind synchronous call edge the
// package contributes.
type CallDagFact struct {
	Regs  []KindReg
	Edges []KindEdge
}

func (*CallDagFact) AFact() {}

// RefKindFact marks an exported function that returns a Ref whose Type
// field is the same compile-time constant on every return path — a
// typed constructor like RoomRef(id) — so importers resolve the kind of
// calls that go through it.
type RefKindFact struct{ Kind string }

func (*RefKindFact) AFact() {}

func runCallDag(pass *Pass) error {
	decls := packageFuncDecls(pass)
	var fact CallDagFact

	// Kind registrations: System.RegisterType("kind", factory) anywhere
	// in the package, with the factory's concrete type resolved from its
	// return expressions.
	for _, fn := range sortedFuncs(decls) {
		ast.Inspect(decls[fn].Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				return true
			}
			callee := calleeFunc(pass.TypesInfo, call)
			if callee == nil || callee.Name() != "RegisterType" ||
				recvTypeName(callee) != "System" || !pathHasSegment(funcPkgPath(callee), "actor") {
				return true
			}
			kind, ok := constString(pass.TypesInfo, call.Args[0])
			if !ok {
				return true
			}
			tpkg, tname, ok := factoryConcreteType(pass, decls, call.Args[1])
			if !ok {
				return true
			}
			fact.Regs = append(fact.Regs, KindReg{
				Kind: kind, TypePkg: tpkg, TypeName: tname,
				Site: siteOf(pass.Fset, call.Pos()),
			})
			return true
		})
	}

	// Constant-kind Ref constructors, usable at call sites and exported
	// as RefKindFact for importers.
	refKinds := map[*types.Func]string{}
	for _, fn := range sortedFuncs(decls) {
		if kind, ok := refReturnKind(pass, decls[fn]); ok {
			refKinds[fn] = kind
			pass.ExportObjectFact(fn, &RefKindFact{Kind: kind})
		}
	}

	// Synchronous call edges: BFS each turn method's on-turn subtree
	// (same roots and traversal as turnblock) and resolve the Ref
	// argument of every Context.Call/System.Call reached.
	reach := map[*types.Func]*types.Func{} // fn -> turn root
	var queue []*types.Func
	for _, fn := range sortedFuncs(decls) {
		if isTurnMethod(fn) {
			reach[fn] = fn
			queue = append(queue, fn)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		forEachOnTurnNode(decls[fn].Body, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			callee := calleeFunc(pass.TypesInfo, call)
			if callee == nil {
				return
			}
			if _, hasBody := decls[callee]; hasBody && reach[callee] == nil && !isTurnMethod(callee) {
				reach[callee] = reach[fn]
				queue = append(queue, callee)
			}
		})
	}
	for _, fn := range sortedFuncs(decls) {
		root, ok := reach[fn]
		if !ok {
			continue
		}
		fromPkg, fromType := recvNamedType(root)
		if fromType == "" {
			continue
		}
		vars := refVarKinds(pass, decls[fn].Body)
		forEachOnTurnNode(decls[fn].Body, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return
			}
			callee := calleeFunc(pass.TypesInfo, call)
			if callee == nil || callee.Name() != "Call" ||
				!pathHasSegment(funcPkgPath(callee), "actor") {
				return
			}
			if r := recvTypeName(callee); r != "Context" && r != "System" {
				return
			}
			kind, ok := refExprKind(pass, decls, refKinds, vars, call.Args[0])
			if !ok {
				return
			}
			fact.Edges = append(fact.Edges, KindEdge{
				FromPkg: fromPkg, FromType: fromType, ToKind: kind,
				Site: siteOf(pass.Fset, call.Pos()),
			})
		})
	}

	if len(fact.Regs) > 0 || len(fact.Edges) > 0 {
		pass.ExportPackageFact(&fact)
	}
	return nil
}

// finishCallDag unions every package's registrations and edges, lifts
// type-level edges to kind level, and three-colors the kind graph.
func finishCallDag(pass *FinishPass) {
	var regs []KindReg
	var edges []KindEdge
	pass.EachPackageFact(&CallDagFact{}, func(_ string, f Fact) {
		cf := f.(*CallDagFact)
		regs = append(regs, cf.Regs...)
		edges = append(edges, cf.Edges...)
	})
	// A type may be registered under several kinds (tests do); an edge
	// from it departs from each.
	kindsOf := map[string][]string{} // "pkg\x00type" -> kinds
	for _, r := range regs {
		k := r.TypePkg + "\x00" + r.TypeName
		kindsOf[k] = append(kindsOf[k], r.Kind)
	}
	type kindEdge struct {
		to   string
		site Site
	}
	adj := map[string][]kindEdge{}
	kindSet := map[string]bool{}
	for _, r := range regs {
		kindSet[r.Kind] = true
	}
	for _, e := range edges {
		for _, from := range kindsOf[e.FromPkg+"\x00"+e.FromType] {
			adj[from] = append(adj[from], kindEdge{e.ToKind, e.Site})
			kindSet[e.ToKind] = true
		}
	}
	var kinds []string
	for k := range kindSet {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		es := adj[k]
		sort.Slice(es, func(i, j int) bool {
			if es[i].to != es[j].to {
				return es[i].to < es[j].to
			}
			if es[i].site.File != es[j].site.File {
				return es[i].site.File < es[j].site.File
			}
			return es[i].site.Line < es[j].site.Line
		})
		adj[k] = es
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var stack []string
	var walk func(k string)
	walk = func(k string) {
		color[k] = gray
		stack = append(stack, k)
		for _, e := range adj[k] {
			switch color[e.to] {
			case gray:
				// Back edge: print the cycle from e.to around to k. The
				// walk continues, so every independent cycle is reported.
				i := 0
				for stack[i] != e.to {
					i++
				}
				cycle := ""
				for _, kk := range stack[i:] {
					cycle += kk + " → "
				}
				cycle += e.to
				pass.Reportf(e.site.Position(),
					"synchronous actor call into kind %q closes the kind-level cycle %s; when both directions are in flight each turn holds its activation while awaiting the other and the stage deadlocks — make one direction an async send or restructure so the kind graph is a DAG", e.to, cycle)
			case white:
				walk(e.to)
			}
		}
		stack = stack[:len(stack)-1]
		color[k] = black
	}
	for _, k := range kinds {
		if color[k] == white {
			walk(k)
		}
	}
}

// constString evaluates expr to a compile-time string constant.
func constString(info *types.Info, expr ast.Expr) (string, bool) {
	tv, ok := info.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// factoryConcreteType resolves the concrete named type a factory
// expression produces: a func literal (or a reference to a local
// function) whose returns are &T{}, T{}, or new(T).
func factoryConcreteType(pass *Pass, decls map[*types.Func]*ast.FuncDecl, expr ast.Expr) (pkg, name string, ok bool) {
	expr = ast.Unparen(expr)
	var body *ast.BlockStmt
	switch e := expr.(type) {
	case *ast.FuncLit:
		body = e.Body
	default:
		if fn := funcValueOf(pass.TypesInfo, expr); fn != nil {
			if fd, has := decls[fn]; has {
				body = fd.Body
			}
		}
	}
	if body == nil {
		return "", "", false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if ok {
			return false
		}
		ret, isRet := n.(*ast.ReturnStmt)
		if !isRet || len(ret.Results) != 1 {
			return true
		}
		t := pass.TypesInfo.TypeOf(ret.Results[0])
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
		}
		if n := namedName(t); n != "" {
			pkg, name, ok = namedPkgPath(t), n, true
		}
		return true
	})
	return pkg, name, ok
}

// funcValueOf resolves an identifier or selector used as a function
// value (not a call) to its object.
func funcValueOf(info *types.Info, expr ast.Expr) *types.Func {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[e.Sel].(*types.Func)
		return fn
	}
	return nil
}

// refCompositeKind extracts the constant Type field of a Ref composite
// literal.
func refCompositeKind(pass *Pass, expr ast.Expr) (string, bool) {
	cl, ok := ast.Unparen(expr).(*ast.CompositeLit)
	if !ok {
		return "", false
	}
	t := pass.TypesInfo.TypeOf(cl)
	if namedName(t) != "Ref" || !pathHasSegment(namedPkgPath(t), "actor") {
		return "", false
	}
	for i, el := range cl.Elts {
		if kv, isKV := el.(*ast.KeyValueExpr); isKV {
			if id, isID := kv.Key.(*ast.Ident); isID && id.Name == "Type" {
				return constString(pass.TypesInfo, kv.Value)
			}
			continue
		}
		if i == 0 { // positional: Type is the first field
			return constString(pass.TypesInfo, el)
		}
	}
	return "", false
}

// refVarKinds maps local variables to kinds, for `ref := actor.Ref{Type:
// "x", ...}` followed by ctx.Call(ref, ...). A variable assigned
// conflicting or unresolvable kinds resolves to nothing.
func refVarKinds(pass *Pass, body ast.Node) map[*types.Var]string {
	kinds := map[*types.Var]string{}
	poisoned := map[*types.Var]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, isID := lhs.(*ast.Ident)
			if !isID {
				continue
			}
			v, isVar := pass.TypesInfo.ObjectOf(id).(*types.Var)
			if !isVar || namedName(v.Type()) != "Ref" || !pathHasSegment(namedPkgPath(v.Type()), "actor") {
				continue
			}
			kind, resolved := refCompositeKind(pass, as.Rhs[i])
			if !resolved {
				poisoned[v] = true
				continue
			}
			if prev, seen := kinds[v]; seen && prev != kind {
				poisoned[v] = true
				continue
			}
			kinds[v] = kind
		}
		return true
	})
	for v := range poisoned {
		delete(kinds, v)
	}
	return kinds
}

// refExprKind resolves the kind of a Ref-typed call argument: an inline
// composite, a single-kind local variable, or a constructor call whose
// function carries a (local or imported) constant return kind.
func refExprKind(pass *Pass, decls map[*types.Func]*ast.FuncDecl, refKinds map[*types.Func]string, vars map[*types.Var]string, expr ast.Expr) (string, bool) {
	expr = ast.Unparen(expr)
	if kind, ok := refCompositeKind(pass, expr); ok {
		return kind, true
	}
	if id, ok := expr.(*ast.Ident); ok {
		if v, isVar := pass.TypesInfo.ObjectOf(id).(*types.Var); isVar {
			if kind, seen := vars[v]; seen {
				return kind, true
			}
		}
		return "", false
	}
	if call, ok := expr.(*ast.CallExpr); ok {
		fn := calleeFunc(pass.TypesInfo, call)
		if fn == nil {
			return "", false
		}
		if kind, local := refKinds[fn]; local {
			return kind, true
		}
		var rf RefKindFact
		if pass.ImportObjectFact(fn, &rf) {
			return rf.Kind, true
		}
	}
	return "", false
}

// refReturnKind reports the single constant kind every return path of
// fd yields, if fd returns exactly one actor Ref.
func refReturnKind(pass *Pass, fd *ast.FuncDecl) (string, bool) {
	if fd.Type.Results == nil || len(fd.Type.Results.List) != 1 {
		return "", false
	}
	rt := pass.TypesInfo.TypeOf(fd.Type.Results.List[0].Type)
	if namedName(rt) != "Ref" || !pathHasSegment(namedPkgPath(rt), "actor") {
		return "", false
	}
	kind, agree := "", true
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 {
			return true
		}
		k, resolved := refCompositeKind(pass, ret.Results[0])
		if !resolved {
			agree = false
			return true
		}
		if found && k != kind {
			agree = false
			return true
		}
		kind, found = k, true
		return true
	})
	return kind, found && agree
}

// recvNamedType names a method's receiver type and its package.
func recvNamedType(fn *types.Func) (pkg, name string) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", ""
	}
	t := sig.Recv().Type()
	return namedPkgPath(t), namedName(t)
}
