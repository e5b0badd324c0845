// Package sharedwrite proves that memory written inside the module's
// parallel contexts is either worker-disjoint or synchronized.
//
// A parallel context is the body of a fork-join combinator
// (concurrent.ParallelItems / ParallelRange, or an engine wrapper such
// as ForVertices/ForItems/ForChunks that forwards its func parameter to
// one), or a function literal spawned by a go statement inside a loop
// (the hand-rolled worker-pool idiom). Inside a context, every write is
// classified:
//
//   - writes to variables declared inside the context are goroutine-local;
//   - element writes into a slice are safe when the first index is
//     proven worker-distinct, or the slice itself is worker-owned; a
//     field of a struct-valued element (x[i].f, not through a pointer)
//     counts as an element write;
//   - any other write (captured variable, struct field, pointer target,
//     map entry) must happen under a held mutex.
//
// The disjointness prover knows the module's partitioning idioms:
//
//   - the item parameter of a ParallelItems body is distinct; the
//     (start, end) parameters of a ParallelRange body form a disjoint
//     window; affine images i±c and i*c of a distinct index stay
//     distinct, and so does the image under a value-preserving identity
//     function (property.Index32);
//   - `lo, hi := plan.Range(p)` for a partition Plan and distinct p
//     yields a disjoint window, as do bounds-array pairs b[w] / b[w+c]
//     and affine chunks w*m / w*m+m;
//   - a for loop over a window confines its induction variable; the
//     guards `if v < lo || v >= hi { continue }` and
//     `if v >= lo && v < hi { ... }` confine v to the window;
//   - slicing at a window (`d := dist[lo:hi]`, `h := hist[w*n:w*n+n]`)
//     yields a worker-owned slice; ranging over one relates the range
//     index back to the absolute index (lo + dv is distinct).
//
// Calls are followed same-package: a callee is summarized into the set
// of parameters it uses as write indices (requirements, re-proven
// against the arguments at each call site) plus the writes no parameter
// can justify (violations, surfaced at the call site). Cross-package
// callees are deliberately opaque — their packages carry their own
// discipline and lockset/atomichygiene audit the locking side.
//
// Writes whose safety argument lives outside the fragment the prover
// handles (e.g. per-vertex slots that a preceding phase made unique)
// are waived in place:
//
//	s.lut[verts[i].ID] = i //vet:sharedwrite IDs deduplicated by construction; pinned by TestResolveDup
//
// The justification is mandatory — a bare //vet:sharedwrite is itself
// reported. A directive on the line above a statement waives the whole
// statement. Deliberate limitations: deferred calls are not walked,
// single un-looped go statements are not contexts (spawner/spawnee
// overlap is spawnsite's concern), and a held mutex blesses every write
// (lockset audits lock consistency).
package sharedwrite

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/graphbig/graphbig-go/internal/analysis"
)

// Analyzer is the sharedwrite module analyzer.
var Analyzer = &analysis.Analyzer{
	Name:      "sharedwrite",
	Doc:       "writes in parallel contexts must be worker-disjoint (proven index/window/ownership) or mutex-held",
	RunModule: run,
}

// scope: the packages whose parallel contexts are checked.
var scope = []string{
	"internal/engine",
	"internal/concurrent",
	"internal/property",
	"internal/workloads",
}

type pkginfo struct {
	info  *types.Info
	types *types.Package
}

func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	return analysis.Callee(info, call)
}

// summary is what a callee does with shared memory, from its caller's
// point of view.
type summary struct {
	params []*types.Var
	// reqs: parameter index -> descriptions of the shared writes that
	// are safe iff the argument is worker-distinct (or worker-owned).
	reqs map[int][]string
	// bad: shared writes no parameter can justify.
	bad []string
}

type checker struct {
	mp       *analysis.ModulePass
	m        *analysis.Module
	cg       *analysis.CallGraph
	ws       *analysis.WaiverSet
	identFns map[*types.Func]bool
	wrappers map[*types.Func]int // body-forwarding funcs -> arg index of the body
	sums     map[*types.Func]*summary
	litSums  map[*ast.FuncLit]*summary
	inProg   map[any]bool
	reported map[token.Pos]bool
	// The ownership lattice (ownership.go): mailboxes whose every Put
	// routes by one message field, container fields proven partition-
	// owned, and the memoized dupfree-worklist verdicts.
	mailRoute map[*types.Var]string
	partOwned map[*types.Var]bool
	injState  map[*types.Var]int8
}

func run(mp *analysis.ModulePass) error {
	c := &checker{
		mp:       mp,
		m:        mp.Module,
		cg:       mp.Module.CallGraph(),
		ws:       mp.Module.Waivers("sharedwrite"),
		identFns: map[*types.Func]bool{},
		wrappers: map[*types.Func]int{},
		sums:     map[*types.Func]*summary{},
		litSums:  map[*ast.FuncLit]*summary{},
		inProg:   map[any]bool{},
		reported: map[token.Pos]bool{},
		injState: map[*types.Var]int8{},
	}
	for _, node := range c.cg.Declared() {
		c.detectIdentity(node)
		c.detectWrapper(node)
	}
	// Module-level ownership audits, after identity/wrapper detection
	// (the container audit resolves peeled identities and drain shapes).
	c.mailRoute = c.auditMailRoutes()
	c.partOwned = c.auditContainers(c.mailRoute)
	for _, node := range c.cg.Declared() {
		if node.Pkg == nil || !analysis.HasPathSuffix(node.Pkg.PkgPath, scope...) {
			continue
		}
		units := []ast.Node{node.Decl}
		for _, lit := range analysis.FuncLits(node.Decl) {
			units = append(units, lit)
		}
		for _, unit := range units {
			c.findContexts(node, unit)
		}
	}
	for _, w := range c.ws.All() {
		if w.Justification == "" {
			c.mp.Report(w.Pos, "//vet:sharedwrite waiver requires a justification (what makes this write safe, and which test pins it)")
		}
	}
	return nil
}

// detectIdentity records single-parameter functions every return of
// which yields the parameter (possibly through a conversion) — the
// property.Index32 shape. The prover peels calls to them.
func (c *checker) detectIdentity(node *analysis.CGNode) {
	fn := node.Fn
	sig := fn.Signature()
	if sig.Recv() != nil || sig.Params().Len() != 1 || sig.Results().Len() != 1 || node.Decl.Body == nil {
		return
	}
	param := sig.Params().At(0)
	info := node.Pkg.TypesInfo
	returns, identity := 0, true
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		returns++
		if len(ret.Results) != 1 {
			identity = false
			return true
		}
		x := ast.Unparen(ret.Results[0])
		for {
			call, ok := x.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				break
			}
			tv, ok := info.Types[call.Fun]
			if !ok || !tv.IsType() {
				break
			}
			x = ast.Unparen(call.Args[0])
		}
		id, ok := x.(*ast.Ident)
		if !ok || info.Uses[id] != param {
			identity = false
		}
		return true
	})
	if identity && returns > 0 {
		c.identFns[fn] = true
	}
}

// detectWrapper records functions that forward a func-typed parameter
// as the body of a fork-join combinator (engine.ForVertices/ForItems/
// ForChunks): a call to one with a literal argument opens a parallel
// context exactly like the combinator itself.
func (c *checker) detectWrapper(node *analysis.CGNode) {
	fn := node.Fn
	info := node.Pkg.TypesInfo
	sig := fn.Signature()
	analysis.InspectUnit(node.Decl, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		_, body, ok := analysis.ParallelCombinator(info, call)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(body).(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		for i := 0; i < sig.Params().Len(); i++ {
			if sig.Params().At(i) == obj {
				c.wrappers[fn] = i
			}
		}
		return true
	})
}

func (c *checker) reportOnce(pos token.Pos, format string, args ...any) {
	if c.reported[pos] {
		return
	}
	c.reported[pos] = true
	c.mp.Report(pos, format, args...)
}

// newEnv builds a fresh evaluation environment for a context or callee
// in pkg, rooted at the enclosing declaration.
func (c *checker) newEnv(pkg *analysis.Package, root ast.Node) *env {
	return &env{
		c:      c,
		pkg:    &pkginfo{info: pkg.TypesInfo, types: pkg.Types},
		root:   root,
		locals: map[*types.Var]bool{},
		facts:  map[*types.Var]*vfact{},
		held:   map[*types.Var]bool{},
		apkg:   pkg,
	}
}

// findContexts scans one evaluation unit for parallel contexts:
// combinator and wrapper calls with a resolvable body literal, and
// spawn-in-loop go statements (the loop parameter carries the
// innermost enclosing loop, nil outside any loop).
func (c *checker) findContexts(node *analysis.CGNode, unit ast.Node) {
	info := node.Pkg.TypesInfo
	body := unitBodyOf(unit)
	if body == nil {
		return
	}
	var scan func(n ast.Node, loop ast.Stmt)
	scan = func(n ast.Node, loop ast.Stmt) {
		ast.Inspect(n, func(m ast.Node) bool {
			if m == nil || m == n {
				return true
			}
			switch m := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ForStmt:
				if m.Body != nil {
					scan(m.Body, m)
				}
				return false
			case *ast.RangeStmt:
				if m.Body != nil {
					scan(m.Body, m)
				}
				return false
			case *ast.GoStmt:
				if loop != nil {
					if lit := spawnPayloadLit(info, unit, m); lit != nil {
						c.checkSpawnContext(node, loop, m, lit)
					}
				}
				for _, a := range m.Call.Args {
					scan(a, loop)
				}
				return false
			case *ast.CallExpr:
				if lit := c.contextLit(info, unit, m); lit != nil {
					c.checkCombinatorContext(node, m, lit)
				}
			}
			return true
		})
	}
	scan(body, nil)
}

// contextLit resolves the body literal of a combinator or wrapper call.
func (c *checker) contextLit(info *types.Info, scope ast.Node, call *ast.CallExpr) *ast.FuncLit {
	var body ast.Expr
	if _, b, ok := analysis.ParallelCombinator(info, call); ok {
		body = b
	} else if fn := calleeOf(info, call); fn != nil {
		idx, ok := c.wrappers[fn]
		if !ok || idx >= len(call.Args) {
			return nil
		}
		body = call.Args[idx]
	} else {
		return nil
	}
	switch b := ast.Unparen(body).(type) {
	case *ast.FuncLit:
		return b
	case *ast.Ident:
		lit, _ := analysis.ResolveFuncValue(info, scope, b)
		return lit
	}
	return nil
}

// spawnPayloadLit resolves a go statement's payload literal (direct or
// through a single-assignment local).
func spawnPayloadLit(info *types.Info, scope ast.Node, g *ast.GoStmt) *ast.FuncLit {
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		return fun
	case *ast.Ident:
		if _, isFn := info.Uses[fun].(*types.Func); isFn {
			return nil
		}
		lit, _ := analysis.ResolveFuncValue(info, scope, fun)
		return lit
	}
	return nil
}

// checkCombinatorContext checks a combinator/wrapper body literal: a
// single parameter is the worker-distinct item index, a parameter pair
// is a worker-disjoint window. For a direct combinator call the first
// argument is the iteration total; the item index and window are
// confined to [0, total), which licenses the stride rule (A*total + j).
func (c *checker) checkCombinatorContext(node *analysis.CGNode, call *ast.CallExpr, lit *ast.FuncLit) {
	e := c.newEnv(node.Pkg, node.Decl)
	e.ctxStart, e.ctxEnd = lit.Pos(), lit.End()
	if _, _, ok := analysis.ParallelCombinator(node.Pkg.TypesInfo, call); ok && len(call.Args) > 0 {
		e.total = call.Args[0]
	}
	params := litParams(node.Pkg.TypesInfo, lit)
	for _, p := range params {
		e.locals[p] = true
	}
	switch len(params) {
	case 1:
		e.setFact(params[0], vfact{distinct: prov{ok: true}, confined: true})
	case 2:
		e.setFact(params[0], vfact{distinct: prov{ok: true}})
		e.locals[params[1]] = true
		e.windows = append(e.windows, window{lo: params[0], hi: params[1], p: prov{ok: true}, confined: true})
	}
	e.walkStmtList(lit.Body.List)
}

// checkSpawnContext checks a go-in-loop payload literal. The spawner's
// loop variable is worker-distinct, so payload parameters inherit the
// provability of their arguments, and argument pairs that form a
// bounds-array window seed a window over the parameter pair.
func (c *checker) checkSpawnContext(node *analysis.CGNode, loop ast.Stmt, g *ast.GoStmt, lit *ast.FuncLit) {
	info := node.Pkg.TypesInfo
	// Mini-environment of the spawning loop, for proving arguments.
	sp := c.newEnv(node.Pkg, node.Decl)
	if v := loopVar(sp, loop); v != nil {
		sp.setFact(v, vfact{distinct: prov{ok: true}})
	}
	e := c.newEnv(node.Pkg, node.Decl)
	e.ctxStart, e.ctxEnd = lit.Pos(), lit.End()
	params := litParams(info, lit)
	for _, p := range params {
		e.locals[p] = true
	}
	args := g.Call.Args
	for i, p := range params {
		if i < len(args) {
			if pr := sp.prove(args[i]); pr.ok {
				e.setFact(p, vfact{distinct: prov{ok: true}})
			}
		}
	}
	for i := range params {
		for j := range params {
			if i == j || i >= len(args) || j >= len(args) {
				continue
			}
			if wi, ok := sp.windowProv(args[i], args[j]); ok && wi.p.ok {
				e.windows = append(e.windows, window{lo: params[i], hi: params[j], p: wi.p})
			}
		}
	}
	e.walkStmtList(lit.Body.List)
}

// loopVar extracts the induction/key variable of a loop statement.
func loopVar(e *env, loop ast.Stmt) *types.Var {
	switch l := loop.(type) {
	case *ast.ForStmt:
		a, ok := l.Init.(*ast.AssignStmt)
		if !ok || a.Tok != token.DEFINE || len(a.Lhs) != 1 {
			return nil
		}
		return identVar(e, a.Lhs[0])
	case *ast.RangeStmt:
		if l.Key == nil {
			return nil
		}
		return identVar(e, l.Key)
	}
	return nil
}

func litParams(info *types.Info, lit *ast.FuncLit) []*types.Var {
	var out []*types.Var
	if lit.Type.Params == nil {
		return out
	}
	for _, f := range lit.Type.Params.List {
		for _, name := range f.Names {
			if v, ok := info.Defs[name].(*types.Var); ok {
				out = append(out, v)
			}
		}
	}
	return out
}

func unitBodyOf(unit ast.Node) *ast.BlockStmt {
	switch u := unit.(type) {
	case *ast.FuncDecl:
		return u.Body
	case *ast.FuncLit:
		return u.Body
	}
	return nil
}

// summarize computes (and memoizes) the summary of a declared function:
// walk its body with each parameter's disjointness conditional on
// itself, collecting requirements and violations instead of reporting.
func (c *checker) summarize(fn *types.Func) *summary {
	if s, ok := c.sums[fn]; ok {
		return s
	}
	if c.inProg[fn] {
		return &summary{reqs: map[int][]string{}}
	}
	node := c.cg.Node(fn)
	if node == nil || node.Decl == nil || node.Decl.Body == nil {
		return nil
	}
	c.inProg[fn] = true
	defer delete(c.inProg, fn)
	e := c.newEnv(node.Pkg, node.Decl)
	s := &summary{reqs: map[int][]string{}}
	sig := fn.Signature()
	if r := sig.Recv(); r != nil {
		s.params = append(s.params, r)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		s.params = append(s.params, sig.Params().At(i))
	}
	for _, p := range s.params {
		e.setFact(p, vfact{distinct: prov{via: p}, owned: prov{via: p}})
	}
	e.sum = s
	e.walkStmtList(node.Decl.Body.List)
	c.sums[fn] = s
	return s
}

// summarizeLit summarizes a function literal called through a local
// variable (spathdelta's push/takeBucket idiom).
func (c *checker) summarizeLit(pkg *pkginfo, root ast.Node, lit *ast.FuncLit) *summary {
	if s, ok := c.litSums[lit]; ok {
		return s
	}
	if c.inProg[lit] {
		return &summary{reqs: map[int][]string{}}
	}
	c.inProg[lit] = true
	defer delete(c.inProg, lit)
	e := &env{
		c:      c,
		pkg:    pkg,
		root:   root,
		locals: map[*types.Var]bool{},
		facts:  map[*types.Var]*vfact{},
		held:   map[*types.Var]bool{},
	}
	s := &summary{reqs: map[int][]string{}}
	// litParams needs the defining info; pkg.info is it (lits live in
	// the same package as their enclosing declaration).
	s.params = litParams(e.info(), lit)
	for _, p := range s.params {
		e.setFact(p, vfact{distinct: prov{via: p}, owned: prov{via: p}})
	}
	e.sum = s
	e.walkStmtList(lit.Body.List)
	c.litSums[lit] = s
	return s
}

func paramIndex(params []*types.Var, v *types.Var) int {
	for i, p := range params {
		if p == v {
			return i
		}
	}
	return -1
}
