package sharedwrite

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/graphbig/graphbig-go/internal/analysis"
	"github.com/graphbig/graphbig-go/internal/analysis/pointsto"
)

// The statement walker: classifies writes, tracks locals/facts/locks,
// follows same-package calls through summaries.

// suppressed consults the waiver directives. A waiver is marked used
// only here, on an actual suppression — a directive that never fires
// is stale and the -waivers audit flags it.
func (e *env) suppressed(pos token.Pos) bool {
	if n := len(e.activeWaivers); n > 0 {
		e.activeWaivers[n-1].MarkUsed()
		return true
	}
	if w := e.c.ws.At(pos, 0); w != nil {
		w.MarkUsed()
		return true
	}
	return false
}

// flagShared records a write that can only be justified by a lock.
func (e *env) flagShared(pos token.Pos, desc string) {
	if e.heldAny() || e.suppressed(pos) {
		return
	}
	if e.sum != nil {
		e.sum.bad = append(e.sum.bad, desc)
		return
	}
	e.c.reportOnce(pos, "unsynchronized write to shared %s inside a parallel worker; synchronize it or make it worker-local", desc)
}

// flagIndex records an element write whose index is not proven
// worker-distinct; via carries the parameter the proof is conditional
// on when collecting a summary.
func (e *env) flagIndex(pos token.Pos, desc string, via *types.Var) {
	if e.heldAny() || e.suppressed(pos) {
		return
	}
	if e.sum != nil {
		if via != nil {
			if i := paramIndex(e.sum.params, via); i >= 0 {
				e.sum.reqs[i] = append(e.sum.reqs[i], desc)
				return
			}
		}
		e.sum.bad = append(e.sum.bad, desc)
		return
	}
	e.c.reportOnce(pos, "write to shared %s is not proven disjoint across workers; index by a worker-distinct value, write through an owned window, or lock", desc)
}

func (e *env) walkStmtList(list []ast.Stmt) {
	for _, s := range list {
		if w := e.c.ws.At(s.Pos(), -1); w != nil {
			e.activeWaivers = append(e.activeWaivers, w)
			e.walkStmt(s)
			e.activeWaivers = e.activeWaivers[:len(e.activeWaivers)-1]
		} else {
			e.walkStmt(s)
		}
		if x, wi, ok := e.escapeGuard(s); ok {
			nf := vfact{distinct: wi.p, confined: wi.confined, ownPart: wi.part}
			if old := e.fact(x); old != nil {
				nf.owned, nf.ownedLo, nf.off, nf.offP = old.owned, old.ownedLo, old.off, old.offP
				nf.fields, nf.elems, nf.elemsOf = old.fields, old.elems, old.elemsOf
			}
			e.facts[x] = &nf
		}
	}
}

func (e *env) walkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.AssignStmt:
		e.handleAssign(s)
	case *ast.IncDecStmt:
		if id, ok := ast.Unparen(s.X).(*ast.Ident); ok {
			if v := e.objOf(id); v != nil && e.locals[v] {
				// A per-worker mutation is not injective across loop
				// iterations: the variable loses its distinctness.
				if f := e.fact(v); f != nil {
					f.distinct = prov{}
				}
				return
			}
		}
		e.classifyWrite(s.X)
	case *ast.ExprStmt:
		e.handleExpr(s.X)
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, val := range vs.Values {
				e.handleExpr(val)
			}
			for i, name := range vs.Names {
				v, _ := e.info().Defs[name].(*types.Var)
				if v == nil {
					continue
				}
				// `var x []T` with no initializer: the zero value is
				// fresh, so the variable starts out worker-owned (an
				// assignment recomputes the fact).
				f := vfact{owned: prov{ok: true}}
				if i < len(vs.Values) {
					f = e.vfactOf(vs.Values[i])
				}
				e.setFact(v, f)
			}
		}
	case *ast.IfStmt:
		e.walkStmt(s.Init)
		e.handleExpr(s.Cond)
		if x, wi, ok := e.containGuard(s); ok {
			saved, had := e.facts[x]
			nf := vfact{distinct: wi.p, confined: wi.confined, ownPart: wi.part}
			if saved != nil {
				nf.owned, nf.ownedLo, nf.off, nf.offP = saved.owned, saved.ownedLo, saved.off, saved.offP
				nf.fields, nf.elems, nf.elemsOf = saved.fields, saved.elems, saved.elemsOf
			}
			e.facts[x] = &nf
			e.walkStmtList(s.Body.List)
			if had {
				e.facts[x] = saved
			} else {
				delete(e.facts, x)
			}
		} else if x, ok := e.casClaimGuard(s.Cond); ok {
			saved, had := e.facts[x]
			nf := vfact{distinct: prov{ok: true}}
			if saved != nil {
				nf.confined = saved.confined
				nf.owned, nf.ownedLo, nf.off, nf.offP = saved.owned, saved.ownedLo, saved.off, saved.offP
				nf.fields, nf.elems, nf.elemsOf, nf.ownPart = saved.fields, saved.elems, saved.elemsOf, saved.ownPart
			}
			e.facts[x] = &nf
			e.walkStmtList(s.Body.List)
			if had {
				e.facts[x] = saved
			} else {
				delete(e.facts, x)
			}
		} else {
			e.walkStmtList(s.Body.List)
		}
		e.walkStmt(s.Else)
	case *ast.BlockStmt:
		e.walkStmtList(s.List)
	case *ast.ForStmt:
		e.walkStmt(s.Init)
		if s.Cond != nil {
			e.handleExpr(s.Cond)
		}
		e.blessLoopWindow(s)
		if s.Body != nil {
			e.walkStmtList(s.Body.List)
		}
		e.walkStmt(s.Post)
	case *ast.RangeStmt:
		e.handleExpr(s.X)
		e.handleRangeVars(s)
		if s.Body != nil {
			e.walkStmtList(s.Body.List)
		}
	case *ast.GoStmt:
		// The payload runs on its own goroutine (its own context when
		// spawned in a loop); arguments evaluate here.
		for _, a := range s.Call.Args {
			if _, ok := ast.Unparen(a).(*ast.FuncLit); ok {
				continue
			}
			e.handleExpr(a)
		}
	case *ast.DeferStmt:
		// Deferred calls are not walked: a deferred Unlock keeps the
		// lock held for the rest of the body as far as this analysis
		// is concerned, and deferred writes are out of scope.
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			e.handleExpr(r)
		}
	case *ast.SendStmt:
		e.handleExpr(s.Chan)
		e.handleExpr(s.Value)
	case *ast.SwitchStmt:
		e.walkStmt(s.Init)
		if s.Tag != nil {
			e.handleExpr(s.Tag)
		}
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				for _, x := range cl.List {
					e.handleExpr(x)
				}
				e.walkStmtList(cl.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		e.walkStmt(s.Init)
		e.walkStmt(s.Assign)
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				e.walkStmtList(cl.Body)
			}
		}
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CommClause); ok {
				e.walkStmt(cl.Comm)
				e.walkStmtList(cl.Body)
			}
		}
	case *ast.LabeledStmt:
		e.walkStmt(s.Stmt)
	}
}

// blessLoopWindow confines `for v := lo; v < hi; ...` to a proven
// window: v is worker-distinct inside the loop.
func (e *env) blessLoopWindow(s *ast.ForStmt) {
	a, ok := s.Init.(*ast.AssignStmt)
	if !ok || a.Tok != token.DEFINE || len(a.Lhs) != 1 || len(a.Rhs) != 1 || s.Cond == nil {
		return
	}
	v := identVar(e, a.Lhs[0])
	cond, ok := ast.Unparen(s.Cond).(*ast.BinaryExpr)
	if !ok || cond.Op != token.LSS || v == nil || v != identVar(e, cond.X) {
		return
	}
	if wi, ok := e.windowProv(a.Rhs[0], cond.Y); ok {
		e.setFact(v, vfact{distinct: wi.p, confined: wi.confined, ownPart: wi.part})
	}
}

// casClaimGuard recognizes a positively-occurring conjunct
// atomic.CompareAndSwapXxx(&arr[v], old, new) in an if-condition: the
// then-branch runs for at most one worker per value of v (the winner of
// the claim), so v is worker-distinct inside it.
func (e *env) casClaimGuard(cond ast.Expr) (*types.Var, bool) {
	cond = ast.Unparen(cond)
	if b, ok := cond.(*ast.BinaryExpr); ok && b.Op == token.LAND {
		if v, ok := e.casClaimGuard(b.X); ok {
			return v, true
		}
		return e.casClaimGuard(b.Y)
	}
	call, ok := cond.(*ast.CallExpr)
	if !ok || len(call.Args) < 1 {
		return nil, false
	}
	fn := calleeOf(e.info(), call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" ||
		!strings.HasPrefix(fn.Name(), "CompareAndSwap") {
		return nil, false
	}
	ue, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
	if !ok || ue.Op != token.AND {
		return nil, false
	}
	ix, ok := ast.Unparen(ue.X).(*ast.IndexExpr)
	if !ok {
		return nil, false
	}
	if v := identVar(e, ix.Index); v != nil {
		return v, true
	}
	return nil, false
}

// ptsOwned is the points-to ownership fallback: every abstract object
// the expression may denote was allocated inside this context body and
// has no holder outside it, so no other worker can reach the memory and
// writes through it are worker-local. Summary environments have no
// syntactic range and never use the fallback.
func (e *env) ptsOwned(x ast.Expr) bool {
	if e.ctxStart == token.NoPos || e.sum != nil {
		return false
	}
	r := pointsto.Of(e.c.m)
	objs := r.EvalObjects(e.info(), ast.Unparen(x))
	if len(objs) == 0 {
		return false
	}
	for _, o := range objs {
		if o.Kind != pointsto.KAlloc && o.Kind != pointsto.KVar {
			return false
		}
		p := o.Pos()
		if p == token.NoPos || p < e.ctxStart || p >= e.ctxEnd {
			return false
		}
		if r.HolderOutside(o, e.ctxStart, e.ctxEnd) {
			return false
		}
	}
	return true
}

// handleRangeVars introduces the key/value variables of a range loop.
// Ranging an owned slice cut at lo relates the key back to the absolute
// index: lo + key is worker-distinct.
func (e *env) handleRangeVars(s *ast.RangeStmt) {
	op, lo := e.ownedProve(s.X)
	if s.Tok != token.DEFINE {
		return
	}
	if s.Key != nil {
		if kv := identVar(e, s.Key); kv != nil {
			f := vfact{}
			if op.proven() && lo != nil {
				f.off, f.offP = lo, op
			}
			e.setFact(kv, f)
		}
	}
	if s.Value != nil {
		if vv := identVar(e, s.Value); vv != nil {
			f := vfact{}
			// Ranging a partition-owned container slot: every element is
			// owned by the slot's partition, so the value variable is as
			// distinct as the slot index.
			if ep, eo := e.elemsProve(s.X); ep.proven() && eo != nil {
				f.distinct, f.ownPart = ep, eo
			}
			e.setFact(vv, f)
		}
	}
}

func (e *env) handleAssign(a *ast.AssignStmt) {
	// Partition window: lo, hi := plan.Range(q).
	if len(a.Lhs) == 2 && len(a.Rhs) == 1 {
		if call, ok := ast.Unparen(a.Rhs[0]).(*ast.CallExpr); ok {
			if fn := calleeOf(e.info(), call); fn != nil && fn.Name() == "Range" &&
				fn.Signature().Recv() != nil && fn.Pkg() != nil &&
				analysis.HasPathSuffix(fn.Pkg().Path(), "internal/partition") &&
				len(call.Args) == 1 {
				lo, hi := identVar(e, a.Lhs[0]), identVar(e, a.Lhs[1])
				for _, arg := range call.Args {
					e.handleExpr(arg)
				}
				if lo != nil && hi != nil {
					p := e.prove(call.Args[0])
					e.setFact(lo, vfact{})
					e.setFact(hi, vfact{})
					if p.proven() {
						part := e.c.peelIdentVar(e.info(), call.Args[0])
						e.windows = append(e.windows, window{lo: lo, hi: hi, p: p, part: part})
					}
					return
				}
			}
		}
	}
	for _, r := range a.Rhs {
		e.handleExpr(r)
	}
	type pend struct {
		v *types.Var
		f vfact
	}
	var pends []pend
	for i, l := range a.Lhs {
		if id, ok := ast.Unparen(l).(*ast.Ident); ok {
			if id.Name == "_" {
				continue
			}
			v := e.objOf(id)
			if v != nil && (a.Tok == token.DEFINE || e.locals[v]) {
				f := vfact{}
				if len(a.Lhs) == len(a.Rhs) && (a.Tok == token.DEFINE || a.Tok == token.ASSIGN) {
					f = e.vfactOf(a.Rhs[i])
				}
				pends = append(pends, pend{v, f})
				continue
			}
		}
		e.classifyWrite(l)
	}
	// Parallel assignment (`cur, next = next, cur`): every RHS is
	// evaluated against the pre-assignment facts, then all land.
	for _, p := range pends {
		e.setFact(p.v, p.f)
	}
}

// classifyWrite vets one assignment target.
func (e *env) classifyWrite(lhs ast.Expr) {
	lhs = ast.Unparen(lhs)
	switch x := lhs.(type) {
	case *ast.Ident:
		if x.Name == "_" {
			return
		}
		v := e.objOf(x)
		if v == nil || e.locals[v] {
			return
		}
		e.flagShared(x.Pos(), types.ExprString(x))
	case *ast.IndexExpr:
		e.classifyElemWrite(x, types.ExprString(x))
	case *ast.SelectorExpr:
		// Field write into a local value struct is goroutine-local;
		// anything reached through a pointer or capture is shared.
		base := ast.Expr(x)
		inPlace := true // every hop selects a field of a struct value
		for {
			if s, ok := ast.Unparen(base).(*ast.SelectorExpr); ok {
				if tv, ok := e.info().Types[s.X]; !ok || !isStructValue(tv.Type) {
					inPlace = false
				}
				base = s.X
				continue
			}
			break
		}
		if id, ok := ast.Unparen(base).(*ast.Ident); ok {
			if v := e.objOf(id); v != nil && e.locals[v] {
				if _, isPtr := v.Type().Underlying().(*types.Pointer); !isPtr {
					return
				}
			}
		}
		// A field of a struct-valued slice or array element is part of
		// that element: x[i].f is an element write into x.
		if ix, ok := ast.Unparen(base).(*ast.IndexExpr); ok && inPlace {
			e.classifyElemWrite(ix, types.ExprString(x))
			return
		}
		// A pointer to a freshly allocated value is worker-owned.
		if op, _ := e.ownedProve(base); op.ok {
			return
		}
		if e.ptsOwned(base) {
			return
		}
		e.flagShared(x.Pos(), types.ExprString(x))
	case *ast.StarExpr:
		e.flagShared(x.Pos(), types.ExprString(x))
	}
}

// isStructValue reports whether t is a struct held by value, so selecting
// one of its fields stays inside the same memory.
func isStructValue(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Struct)
	return ok
}

// classifyElemWrite vets an element write x[i]...[j] (desc names the
// whole target): safe when the container is goroutine-local or owned, or
// when the first index is proven worker-distinct.
func (e *env) classifyElemWrite(x *ast.IndexExpr, desc string) {
	root, first := x.X, x.Index
	for {
		ix, ok := ast.Unparen(root).(*ast.IndexExpr)
		if !ok {
			break
		}
		first = ix.Index
		root = ix.X
	}
	// A local value array is goroutine-local storage.
	if id, ok := ast.Unparen(root).(*ast.Ident); ok {
		if v := e.objOf(id); v != nil && e.locals[v] {
			if _, isArr := v.Type().Underlying().(*types.Array); isArr {
				return
			}
		}
	}
	op, _ := e.ownedProve(root)
	if op.ok {
		return
	}
	if e.ptsOwned(root) {
		return
	}
	if tv, ok := e.info().Types[root]; ok && tv.Type != nil {
		if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
			// A shared map's entries are never index-disjoint:
			// own it, lock, or waive.
			e.flagShared(x.Pos(), types.ExprString(x))
			return
		}
	}
	p := e.prove(first)
	if p.ok {
		return
	}
	via := p.via
	if via == nil {
		via = op.via
	}
	e.flagIndex(x.Pos(), desc, via)
}

func (e *env) handleExpr(x ast.Expr) {
	if x == nil {
		return
	}
	ast.Inspect(x, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			e.handleCall(n)
			return false
		}
		return true
	})
}

func (e *env) handleCall(call *ast.CallExpr) {
	info := e.info()
	if v, op, ok := lockOp(info, call); ok {
		switch op {
		case "lock":
			if v != nil {
				e.held[v] = true
			}
		case "unlock":
			if v != nil {
				delete(e.held, v)
			}
		}
		return
	}
	// A combinator/wrapper body is its own context, checked separately.
	if _, body, ok := analysis.ParallelCombinator(info, call); ok {
		for _, a := range call.Args {
			if a != body {
				e.handleExpr(a)
			}
		}
		return
	}
	fn := calleeOf(info, call)
	if fn != nil {
		if idx, ok := e.c.wrappers[fn]; ok {
			for i, a := range call.Args {
				if i != idx {
					e.handleExpr(a)
				}
			}
			return
		}
	}
	// A Drain callback on a routed mailbox runs inline here, and its
	// message parameter's routing field inherits the drained column's
	// distinctness: every Put on the mailbox sends to plan.Of(field), so
	// column q only ever delivers messages with Of(field) == q.
	if mb, op, ok := analysis.MailboxOp(info, call); ok && op == "drain" && len(call.Args) == 2 {
		if fld, routed := e.c.mailRoute[mb]; routed {
			if lit, ok := ast.Unparen(call.Args[1]).(*ast.FuncLit); ok {
				e.handleExpr(call.Args[0])
				col := e.prove(call.Args[0])
				params := litParams(info, lit)
				for _, p := range params {
					e.locals[p] = true
				}
				if col.proven() && len(params) == 1 {
					e.setFact(params[0], vfact{fields: map[string]prov{fld: col}})
				}
				e.walkStmtList(lit.Body.List)
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					e.handleExpr(sel.X)
				}
				return
			}
		}
	}
	// Arguments evaluate on this goroutine; a literal argument (a
	// Drain or Neighbors callback) runs inline on it too.
	for _, a := range call.Args {
		if lit, ok := ast.Unparen(a).(*ast.FuncLit); ok {
			e.walkLitInline(lit)
		} else {
			e.handleExpr(a)
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		e.handleExpr(sel.X)
	}
	if fn != nil {
		// Same-package callees are summarized; cross-package callees
		// are opaque (their package carries its own discipline).
		if fn.Pkg() == e.pkg.types && !e.c.identFns[fn] {
			if s := e.c.summarize(fn); s != nil {
				e.applySummary(call, fn.Name(), fn, s)
			}
		}
		return
	}
	// Function-valued local (`push := func(...){...}; push(...)`).
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if lit, fn2 := analysis.ResolveFuncValue(info, e.root, id); lit != nil {
			s := e.c.summarizeLit(e.pkg, e.root, lit)
			e.applySummary(call, id.Name, nil, s)
		} else if fn2 != nil && fn2.Pkg() == e.pkg.types {
			if s := e.c.summarize(fn2); s != nil {
				e.applySummary(call, fn2.Name(), fn2, s)
			}
		}
	}
}

func (e *env) walkLitInline(lit *ast.FuncLit) {
	for _, p := range litParams(e.info(), lit) {
		e.locals[p] = true
	}
	e.walkStmtList(lit.Body.List)
}

// applySummary re-proves a callee's requirements against the call-site
// arguments and surfaces its unconditional violations.
func (e *env) applySummary(call *ast.CallExpr, name string, fn *types.Func, s *summary) {
	args := make([]ast.Expr, 0, len(s.params))
	if fn != nil && fn.Signature().Recv() != nil {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		args = append(args, sel.X)
	}
	args = append(args, call.Args...)
	for i := range s.params {
		descs := s.reqs[i]
		if len(descs) == 0 || i >= len(args) {
			continue
		}
		a := args[i]
		p := e.prove(a)
		if p.ok {
			continue
		}
		op, _ := e.ownedProve(a)
		if op.ok {
			continue
		}
		via := p.via
		if via == nil {
			via = op.via
		}
		if e.heldAny() || e.suppressed(call.Pos()) {
			continue
		}
		if e.sum != nil {
			if via != nil {
				if idx := paramIndex(e.sum.params, via); idx >= 0 {
					for _, d := range descs {
						e.sum.reqs[idx] = append(e.sum.reqs[idx], name+": "+d)
					}
					continue
				}
			}
			for _, d := range descs {
				e.sum.bad = append(e.sum.bad, name+": "+d)
			}
			continue
		}
		e.c.reportOnce(call.Pos(), "call to %s writes shared state (%s) indexed by its parameter %q, which is not proven worker-distinct at this call site", name, descs[0], s.params[i].Name())
	}
	if len(s.bad) == 0 || e.heldAny() || e.suppressed(call.Pos()) {
		return
	}
	if e.sum != nil {
		for _, d := range s.bad {
			e.sum.bad = append(e.sum.bad, name+": "+d)
		}
		return
	}
	e.c.reportOnce(call.Pos(), "call to %s performs an unsynchronized shared write (%s) inside a parallel worker", name, s.bad[0])
}

// lockOp recognizes Lock/RLock ("lock") and Unlock/RUnlock ("unlock")
// on a sync.Mutex or sync.RWMutex, with the mutex variable identity.
func lockOp(info *types.Info, call *ast.CallExpr) (*types.Var, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	fn := calleeOf(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, "", false
	}
	recv := fn.Signature().Recv()
	if recv == nil {
		return nil, "", false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil, "", false
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
	default:
		return nil, "", false
	}
	var op string
	switch fn.Name() {
	case "Lock", "RLock":
		op = "lock"
	case "Unlock", "RUnlock":
		op = "unlock"
	default:
		return nil, "", false
	}
	return analysis.SyncVar(info, sel.X), op, true
}
