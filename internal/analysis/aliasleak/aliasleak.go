// Package aliasleak proves the module's internal scratch buffers stay
// module-owned across phase boundaries. Two rules, both driven by the
// points-to relation (internal/analysis/pointsto):
//
// Ordering functions allocate their results. Every package-level
// function of internal/order that takes pointer-like parameters (the
// view's off/nbr arrays) and returns pointer-like results (the
// permutation) must return freshly allocated memory: a result whose
// points-to set intersects a parameter's would let ViewWith's
// permutation composition scribble on the caller's adjacency arrays.
//
// Scratch slots hold only owned memory. A small registry names the
// scratch fields that are recycled between phases — the engine's
// pull-exit sparsification buffer (Engine.sparse), its per-worker
// push-round queue buffers (pushLane.buf), the partitioned engine's
// per-partition next queues (partState.nx), and the exchange buffer's
// message rows (Mailboxes.box). Every assignment into a
// registry field (or into one of its rows) is checked: the stored value
// must not alias the published View's frozen memory, package-level
// state, or memory blurred in from unanalyzed code. A phase that
// recycles such a buffer would overwrite state some other holder still
// reads.
//
// Findings are waived in place with a mandatory justification:
//
//	e.sparse = vw.NbrOff //vet:aliasleak read-only borrow released before the next phase
//
// A bare //vet:aliasleak is itself reported rather than honored.
package aliasleak

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/graphbig/graphbig-go/internal/analysis"
	"github.com/graphbig/graphbig-go/internal/analysis/immutview"
	"github.com/graphbig/graphbig-go/internal/analysis/pointsto"
)

// Analyzer is the aliasleak module analyzer.
var Analyzer = &analysis.Analyzer{
	Name:      "aliasleak",
	Doc:       "internal scratch buffers must not alias escaping state across phase boundaries",
	RunModule: run,
}

// orderPkg is the path suffix of the package whose exported functions
// must return freshly allocated permutations.
const orderPkg = "internal/order"

// scratchSlots is the registry of phase-recycled scratch fields.
var scratchSlots = []struct {
	pkg, typ, field string
}{
	{"internal/engine", "Engine", "sparse"},
	{"internal/engine", "pushLane", "buf"},
	{"internal/engine", "partState", "nx"},
	{"internal/concurrent", "Mailboxes", "box"},
}

type checker struct {
	mp *analysis.ModulePass
	m  *analysis.Module
	r  *pointsto.Result
	ws *analysis.WaiverSet

	// frozen is the published-View closure immutview protects.
	frozen map[*pointsto.Object]bool
	// global holds every object reachable from a package-level variable.
	global map[*pointsto.Object]bool
	// slot maps a registry field's declaring position to its label.
	slot map[token.Pos]string
	// badWaiver dedups bare-directive reports.
	badWaiver map[*analysis.Waiver]bool
}

func run(mp *analysis.ModulePass) error {
	m := mp.Module
	r := pointsto.Of(m)
	c := &checker{
		mp:        mp,
		m:         m,
		r:         r,
		ws:        m.Waivers("aliasleak"),
		frozen:    immutview.FrozenObjects(m, r),
		global:    globalReachable(m, r),
		slot:      slotFields(m),
		badWaiver: map[*analysis.Waiver]bool{},
	}
	c.checkOrder()
	c.checkScratch()
	return nil
}

// globalReachable computes the field/element closure of everything the
// module's package-level variables point to, stopping at the extern
// blur.
func globalReachable(m *analysis.Module, r *pointsto.Result) map[*pointsto.Object]bool {
	var seeds []*pointsto.Object
	for _, pkg := range m.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if v, ok := scope.Lookup(name).(*types.Var); ok {
				seeds = append(seeds, r.VarObjects(v)...)
			}
		}
	}
	return r.Reachable(seeds, func(o *pointsto.Object) bool { return o.Kind == pointsto.KExtern })
}

// slotFields resolves the scratch registry against the module's types:
// the declaring position of each registered field, which canonicalizes
// generic instantiations (every instance of Mailboxes[T].box shares the
// origin field's position).
func slotFields(m *analysis.Module) map[token.Pos]string {
	out := map[token.Pos]string{}
	for _, pkg := range m.Pkgs {
		for _, s := range scratchSlots {
			if !analysis.HasPathSuffix(pkg.PkgPath, s.pkg) {
				continue
			}
			tn, ok := pkg.Types.Scope().Lookup(s.typ).(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Name() == s.field {
					out[f.Pos()] = s.typ + "." + s.field
				}
			}
		}
	}
	return out
}

// checkOrder enforces the fresh-result rule on internal/order.
func (c *checker) checkOrder() {
	for _, pkg := range c.m.Pkgs {
		if !analysis.HasPathSuffix(pkg.PkgPath, orderPkg) {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				c.checkOrderFunc(fd, fn)
			}
		}
	}
}

func (c *checker) checkOrderFunc(fd *ast.FuncDecl, fn *types.Func) {
	sig := fn.Type().(*types.Signature)
	for i := 0; i < sig.Results().Len(); i++ {
		var ret []*pointsto.Object
		for _, o := range c.r.ReturnObjects(fn, i) {
			if o.Kind == pointsto.KFunc {
				continue // function values are not mutable buffers
			}
			ret = append(ret, o)
		}
		if len(ret) == 0 {
			continue
		}
		for j := 0; j < sig.Params().Len(); j++ {
			p := sig.Params().At(j)
			if c.r.MayAlias(ret, c.r.VarObjects(p)) {
				c.report(fd.Name.Pos(), "%s returns memory that may alias its parameter %s; ordering results must be freshly allocated", fn.Name(), p.Name())
				break
			}
		}
	}
}

// checkScratch walks every assignment in the module looking for stores
// into a registry field (x.fld = v) or one of its rows (x.fld[i] = v)
// and vets the stored value's points-to set.
func (c *checker) checkScratch() {
	if len(c.slot) == 0 {
		return
	}
	for _, node := range c.m.CallGraph().Declared() {
		info := node.Pkg.TypesInfo
		ast.Inspect(node.Decl, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				if label, ok := c.slotStore(info, lhs); ok {
					c.checkStored(info, as.Rhs[i], lhs.Pos(), label)
				}
			}
			return true
		})
	}
}

// slotStore reports whether lvalue writes a registry scratch field or a
// row of one, returning the slot label.
func (c *checker) slotStore(info *types.Info, lvalue ast.Expr) (string, bool) {
	lvalue = ast.Unparen(lvalue)
	if ix, ok := lvalue.(*ast.IndexExpr); ok {
		lvalue = ast.Unparen(ix.X) // row store: x.fld[i] = v
	}
	sel, ok := lvalue.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return "", false
	}
	f, ok := s.Obj().(*types.Var)
	if !ok {
		return "", false
	}
	label, ok := c.slot[f.Pos()]
	return label, ok
}

// checkStored vets the value stored into a scratch slot.
func (c *checker) checkStored(info *types.Info, rhs ast.Expr, pos token.Pos, label string) {
	var badFrozen, badGlobal, badExtern bool
	for _, o := range c.r.EvalObjects(info, rhs) {
		switch {
		case o.Kind == pointsto.KExtern:
			badExtern = true
		case c.frozen[o]:
			badFrozen = true
		case c.global[o]:
			badGlobal = true
		}
	}
	// One finding per store, worst class first: frozen-view aliasing is
	// the corruption immutview guards, global aliasing leaks scratch
	// writes across engines, extern means unanalyzed code may hold it.
	switch {
	case badFrozen:
		c.report(pos, "memory of the published View stored into scratch %s; scratch buffers must not alias escaping state across phase boundaries", label)
	case badGlobal:
		c.report(pos, "memory reachable from package-level state stored into scratch %s; scratch buffers must not alias escaping state across phase boundaries", label)
	case badExtern:
		c.report(pos, "memory from unanalyzed code stored into scratch %s; scratch buffers must not alias escaping state across phase boundaries", label)
	}
}

// report emits the finding unless a justified waiver covers it.
func (c *checker) report(pos token.Pos, format string, args ...any) {
	if w := c.ws.Covering(pos); w != nil {
		if w.Justification != "" {
			w.MarkUsed()
			return
		}
		if !c.badWaiver[w] {
			c.badWaiver[w] = true
			c.mp.Report(pos, "bare //vet:aliasleak directive: a justification is required")
		}
		return
	}
	c.mp.Report(pos, format, args...)
}
