package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"math"
)

// Transfer function and expression evaluator of the range analysis:
// Eval maps expressions to intervals under an environment, stepNode
// applies one block node's state change, and the refine* family pushes
// branch-condition and index-assertion facts back into the environment.

// Eval returns the interval of e under env. It never returns an
// interval narrower than the dynamic semantics allow; Full (or the
// type's range at conversions) is the fallback everywhere.
func (fa *funcAnalysis) Eval(env *Env, e ast.Expr) Interval {
	e = ast.Unparen(e)
	if tv, ok := fa.info.Types[e]; ok && tv.Value != nil {
		if tv.Value.Kind() == constant.Int {
			if k, exact := constant.Int64Val(tv.Value); exact {
				return Point(k)
			}
			if v, exact := constant.Uint64Val(tv.Value); exact && v > 0 {
				return Interval{Lo: ConstBound(math.MaxInt64), Hi: PosInf()}
			}
		}
		return fa.typeRangeOf(e)
	}
	switch x := e.(type) {
	case *ast.Ident:
		o := fa.objOf(x)
		if o != nil && fa.trackVar(o) {
			if iv, ok := env.vars[o]; ok {
				return iv
			}
		}
		return fa.typeRangeOf(e)
	case *ast.BinaryExpr:
		return fa.evalBinary(env, x)
	case *ast.UnaryExpr:
		switch x.Op {
		case token.SUB:
			return fa.Eval(env, x.X).Neg()
		case token.ADD:
			return fa.Eval(env, x.X)
		}
		return fa.typeRangeOf(e)
	case *ast.CallExpr:
		return fa.evalCall(env, x)
	}
	return fa.typeRangeOf(e)
}

// typeRangeOf is the no-information interval: the representable range
// of e's integer type, or Full for everything else.
func (fa *funcAnalysis) typeRangeOf(e ast.Expr) Interval {
	if tv, ok := fa.info.Types[e]; ok && tv.Type != nil {
		if iv, ok := TypeRange(tv.Type); ok {
			return iv
		}
	}
	return Full()
}

func (fa *funcAnalysis) evalBinary(env *Env, x *ast.BinaryExpr) Interval {
	a := fa.Eval(env, x.X)
	b := fa.Eval(env, x.Y)
	var r Interval
	switch x.Op {
	case token.ADD:
		r = a.Add(b)
	case token.SUB:
		r = a.Sub(b)
	case token.REM:
		r = a.Rem(b)
	case token.MUL, token.QUO, token.SHL, token.SHR, token.AND, token.OR, token.XOR:
		r = nonlinear(x.Op, a, b)
		if r.IsFull() {
			// Symbolic endpoints don't survive nonlinear ops; retry
			// with the tightest concrete frame the environment proves.
			r = nonlinear(x.Op, env.concrete(a), env.concrete(b))
		}
	default:
		return fa.typeRangeOf(x)
	}
	// Frame as receiver: Meet prefers the incoming (derived) endpoint
	// when the two are incomparable, so symbolic facts survive clipping.
	return fa.typeRangeOf(x).Meet(r)
}

func nonlinear(op token.Token, a, b Interval) Interval {
	switch op {
	case token.MUL:
		return a.Mul(b)
	case token.QUO:
		return a.Div(b)
	case token.SHL:
		return a.Shl(b)
	case token.SHR:
		return a.Shr(b)
	case token.AND:
		return a.And(b)
	case token.OR, token.XOR:
		return a.OrXor(b)
	}
	return Full()
}

func (fa *funcAnalysis) evalCall(env *Env, call *ast.CallExpr) Interval {
	// Conversion T(x): value-preserving when the operand provably fits
	// the target, otherwise anything in the target's range.
	if tv, ok := fa.info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			target, _ := TypeRange(tv.Type)
			arg := fa.Eval(env, call.Args[0])
			if fa.fits(env, arg, tv.Type) {
				return target.Meet(arg)
			}
			return target
		}
		return fa.typeRangeOf(call)
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if bi, ok := fa.info.Uses[id].(*types.Builtin); ok {
			return fa.evalBuiltin(env, bi.Name(), call)
		}
	}
	if fa.retIv != nil {
		if fn := Callee(fa.info, call); fn != nil {
			return fa.typeRangeOf(call).Meet(fa.retIv(fn))
		}
	}
	return fa.typeRangeOf(call)
}

func (fa *funcAnalysis) evalBuiltin(env *Env, name string, call *ast.CallExpr) Interval {
	switch name {
	case "len":
		if len(call.Args) == 1 {
			return fa.evalLen(env, call.Args[0])
		}
	case "cap":
		if len(call.Args) == 1 {
			x := call.Args[0]
			if t, ok := fa.info.Types[x]; ok {
				if n, ok := arrayLen(t.Type); ok {
					return Point(n)
				}
			}
			// cap >= len >= the len lower bound; no useful upper bound.
			lo := fa.evalLen(env, x).Lo
			if !leqBound(ConstBound(0), lo) {
				lo = ConstBound(0)
			}
			return Interval{Lo: lo, Hi: PosInf()}
		}
	case "min":
		if len(call.Args) > 0 {
			iv := fa.Eval(env, call.Args[0])
			for _, a := range call.Args[1:] {
				o := fa.Eval(env, a)
				iv = Interval{Lo: joinLo(iv.Lo, o.Lo), Hi: meetHi(iv.Hi, o.Hi)}
			}
			return iv
		}
	case "max":
		if len(call.Args) > 0 {
			iv := fa.Eval(env, call.Args[0])
			for _, a := range call.Args[1:] {
				o := fa.Eval(env, a)
				lo := iv.Lo
				if leqBound(lo, o.Lo) {
					lo = o.Lo
				}
				iv = Interval{Lo: lo, Hi: joinHi(iv.Hi, o.Hi)}
			}
			return iv
		}
	}
	return fa.typeRangeOf(call)
}

// evalLen is the interval of len(x): exact for arrays, symbolic
// (len(x) itself as the upper endpoint) for tracked locals, [0, +inf)
// otherwise. The lens table tightens the lower endpoint; its upper
// bound is reachable through upperForms expansion instead of being
// substituted here, so both the symbolic and the concrete fact stay
// usable.
func (fa *funcAnalysis) evalLen(env *Env, x ast.Expr) Interval {
	if t, ok := fa.info.Types[x]; ok {
		if n, ok := arrayLen(t.Type); ok {
			return Point(n)
		}
	}
	if o := fa.lenIdent(x); o != nil {
		lo := ConstBound(0)
		if lv, ok := env.lens[o]; ok {
			lo = meetLo(lo, lv.Lo)
		}
		return Interval{Lo: lo, Hi: SymBound(o, 0, true)}
	}
	return Interval{Lo: ConstBound(0), Hi: PosInf()}
}

// exprPoint returns the exact symbolic point value of e when e is a
// constant, a tracked identifier, an identifier ± constant, or
// len(tracked identifier) — the forms slice-extent tracking needs.
func (fa *funcAnalysis) exprPoint(env *Env, e ast.Expr) (Bound, bool) {
	e = ast.Unparen(e)
	if tv, ok := fa.info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
		if k, exact := constant.Int64Val(tv.Value); exact {
			return ConstBound(k), true
		}
		return Bound{}, false
	}
	switch x := e.(type) {
	case *ast.Ident:
		if o := fa.objOf(x); o != nil && fa.trackVar(o) {
			return SymBound(o, 0, false), true
		}
	case *ast.BinaryExpr:
		if x.Op != token.ADD && x.Op != token.SUB {
			return Bound{}, false
		}
		a, aok := fa.exprPoint(env, x.X)
		b, bok := fa.exprPoint(env, x.Y)
		if !aok || !bok {
			return Bound{}, false
		}
		if x.Op == token.SUB {
			b = negPoint(b)
			if b.Inf != 0 {
				return Bound{}, false
			}
		}
		switch {
		case a.Sym == nil:
			return b.AddK(a.K), b.AddK(a.K).Inf == 0
		case b.Sym == nil:
			return a.AddK(b.K), a.AddK(b.K).Inf == 0
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			if bi, ok := fa.info.Uses[id].(*types.Builtin); ok && bi.Name() == "len" && len(x.Args) == 1 {
				if o := fa.lenIdent(x.Args[0]); o != nil {
					return SymBound(o, 0, true), true
				}
			}
		}
		// A conversion whose operand provably fits the target type is
		// value-preserving, so the operand's symbolic point carries
		// through: `i < int32(n)` bounds i by n, not by MaxInt32.
		if tv, ok := fa.info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			if fa.fits(env, fa.Eval(env, x.Args[0]), tv.Type) {
				return fa.exprPoint(env, x.Args[0])
			}
		}
	}
	return Bound{}, false
}

func negPoint(b Bound) Bound {
	if b.Sym != nil || b.Inf != 0 {
		return PosInf() // marks failure for exprPoint
	}
	return negBound(b)
}

// transfer applies one block: assertions and state changes of each node
// in order. A nil input (unreachable) stays nil.
func (fa *funcAnalysis) transfer(b *Block, in *Env) *Env {
	if in == nil {
		return nil
	}
	env := in.clone()
	for _, n := range b.Nodes {
		fa.stepNode(env, n)
	}
	return env
}

// stepNode folds one node into env: index/slice assertions from the
// expressions it evaluates, then its assignment effect.
func (fa *funcAnalysis) stepNode(env *Env, n ast.Node) {
	switch s := n.(type) {
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			fa.assertExpr(env, r)
		}
		for _, l := range s.Lhs {
			if _, ok := ast.Unparen(l).(*ast.Ident); !ok {
				fa.assertExpr(env, l) // s[i] = x asserts i in range
			}
		}
		fa.applyAssign(env, s)
	case *ast.IncDecStmt:
		if id, ok := ast.Unparen(s.X).(*ast.Ident); ok {
			if o := fa.objOf(id); o != nil && fa.trackVar(o) {
				delta := Point(1)
				if s.Tok == token.DEC {
					delta = Point(-1)
				}
				iv := fa.dropSelfSym(env, o, fa.typeRangeOf(s.X).Meet(fa.Eval(env, s.X).Add(delta)))
				env.killObj(o)
				env.setVar(o, iv)
			}
		}
	case *ast.DeclStmt:
		fa.applyDecl(env, s)
	case *ast.ExprStmt:
		fa.assertExpr(env, s.X)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			fa.assertExpr(env, r)
		}
	case *ast.SendStmt:
		fa.assertExpr(env, s.Chan)
		fa.assertExpr(env, s.Value)
	case *ast.RangeStmt:
		// Range head: key and value are rebound each iteration; the
		// body-edge refinement (refineRangeEdge) re-establishes them.
		for _, e := range [2]ast.Expr{s.Key, s.Value} {
			if e == nil {
				continue
			}
			if id, ok := ast.Unparen(e).(*ast.Ident); ok {
				if o := fa.objOf(id); o != nil {
					env.killObj(o)
				}
			}
		}
	case *ast.GoStmt, *ast.DeferStmt, *ast.SelectStmt, *ast.BranchStmt, *ast.LabeledStmt, *ast.EmptyStmt:
		// No tracked effect: goroutine/deferred bodies run elsewhere,
		// and mutation through them already made their targets
		// untrackable.
	case ast.Expr:
		fa.assertExpr(env, s) // condition, case expr, switch tag, range operand
	}
}

func (fa *funcAnalysis) applyAssign(env *Env, s *ast.AssignStmt) {
	if len(s.Lhs) == len(s.Rhs) && (s.Tok == token.ASSIGN || s.Tok == token.DEFINE) {
		type update struct {
			o            types.Object
			iv           Interval
			ln           Interval
			hasIv, hasLn bool
			lenLink      types.Object // rhs was len(lenLink)
		}
		ups := make([]update, 0, len(s.Lhs))
		for i, l := range s.Lhs {
			id, ok := ast.Unparen(l).(*ast.Ident)
			if !ok {
				continue
			}
			o := fa.objOf(id)
			if o == nil {
				continue
			}
			u := update{o: o}
			if fa.trackVar(o) {
				u.iv = fa.typeRangeOf(l).Meet(fa.Eval(env, s.Rhs[i]))
				u.hasIv = true
				u.lenLink = fa.lenOperand(s.Rhs[i])
			}
			if fa.trackLen(o) {
				if ln, ok := fa.extentOf(env, s.Rhs[i]); ok {
					u.ln = ln
					u.hasLn = true
				}
			}
			ups = append(ups, u)
		}
		// Symbolic endpoints naming an object assigned by this very
		// statement refer to its PRE-assignment value; concretize them
		// now, while env still holds that value, or the stored binding
		// becomes self-referential (ns = p after `for p < ns`).
		for i := range ups {
			if !ups[i].hasIv {
				continue
			}
			for _, k := range ups {
				ups[i].iv = fa.dropSelfSym(env, k.o, ups[i].iv)
			}
		}
		for _, u := range ups {
			env.killObj(u.o)
		}
		for _, u := range ups {
			if u.hasIv {
				env.setVar(u.o, u.iv)
				if u.lenLink != nil {
					// n := len(vs) links both ways: the lens table
					// records len(vs) == n until either side changes.
					p := Interval{Lo: SymBound(u.o, 0, false), Hi: SymBound(u.o, 0, false)}
					cur := Full()
					if lv, ok := env.lens[u.lenLink]; ok {
						cur = lv
					}
					env.setLen(u.lenLink, cur.Meet(p))
				}
			}
			if u.hasLn {
				env.setLen(u.o, u.ln)
			}
		}
		return
	}
	// Op-assign (x += e), or tuple assignment: kill targets; for the
	// arithmetic op-assigns recompute through the equivalent binary op.
	if len(s.Lhs) == 1 && s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
		if id, ok := ast.Unparen(s.Lhs[0]).(*ast.Ident); ok {
			if o := fa.objOf(id); o != nil && fa.trackVar(o) {
				var iv Interval
				a := fa.Eval(env, s.Lhs[0])
				b := fa.Eval(env, s.Rhs[0])
				switch s.Tok {
				case token.ADD_ASSIGN:
					iv = a.Add(b)
				case token.SUB_ASSIGN:
					iv = a.Sub(b)
				case token.REM_ASSIGN:
					iv = a.Rem(b)
				case token.MUL_ASSIGN:
					iv = nonlinear(token.MUL, env.concrete(a), env.concrete(b))
				case token.QUO_ASSIGN:
					iv = a.Div(b)
				case token.SHR_ASSIGN:
					iv = a.Shr(b)
				case token.AND_ASSIGN:
					iv = nonlinear(token.AND, env.concrete(a), env.concrete(b))
				default:
					iv = Full()
				}
				iv = fa.dropSelfSym(env, o, fa.typeRangeOf(s.Lhs[0]).Meet(iv))
				env.killObj(o)
				env.setVar(o, iv)
				return
			}
		}
	}
	for _, l := range s.Lhs {
		if id, ok := ast.Unparen(l).(*ast.Ident); ok {
			if o := fa.objOf(id); o != nil {
				env.killObj(o)
			}
		}
	}
}

// dropSelfSym concretizes the endpoints of iv that name o, against the
// environment in force BEFORE o's reassignment (so the symbol still
// resolves to the value it described).
func (fa *funcAnalysis) dropSelfSym(env *Env, o types.Object, iv Interval) Interval {
	if iv.Lo.Sym != o && iv.Hi.Sym != o {
		return iv
	}
	c := env.concrete(iv)
	if iv.Lo.Sym != o {
		c.Lo = iv.Lo
	}
	if iv.Hi.Sym != o {
		c.Hi = iv.Hi
	}
	return c
}

// lenOperand returns vs when e is len(vs) for a tracked local vs.
func (fa *funcAnalysis) lenOperand(e ast.Expr) types.Object {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil
	}
	if bi, ok := fa.info.Uses[id].(*types.Builtin); !ok || bi.Name() != "len" {
		return nil
	}
	return fa.lenIdent(call.Args[0])
}

// extentOf computes the length interval of a slice/string rvalue:
// copies keep the source length symbolically, subslices subtract exact
// endpoints, make takes its length argument's interval.
func (fa *funcAnalysis) extentOf(env *Env, e ast.Expr) (Interval, bool) {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.Ident:
		if o := fa.lenIdent(x); o != nil {
			p := SymBound(o, 0, true)
			return Interval{Lo: p, Hi: p}, true
		}
	case *ast.SliceExpr:
		if x.Slice3 {
			return Interval{}, false
		}
		lo := ConstBound(0)
		ok := true
		if x.Low != nil {
			lo, ok = fa.exprPoint(env, x.Low)
			if !ok {
				return Interval{}, false
			}
		}
		var hi Bound
		if x.High != nil {
			hi, ok = fa.exprPoint(env, x.High)
		} else if o := fa.lenIdent(x.X); o != nil {
			hi = SymBound(o, 0, true)
		} else if t, tok := fa.info.Types[x.X]; tok {
			if n, aok := arrayLen(t.Type); aok {
				hi = ConstBound(n)
			} else {
				ok = false
			}
		} else {
			ok = false
		}
		if !ok {
			return Interval{}, false
		}
		ext := Interval{Lo: hi, Hi: hi}.Sub(Interval{Lo: lo, Hi: lo})
		if ext.Lo.Inf != 0 && ext.Hi.Inf != 0 {
			return Interval{}, false
		}
		return ext, true
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			if bi, ok := fa.info.Uses[id].(*types.Builtin); ok && bi.Name() == "make" && len(x.Args) >= 2 {
				// Prefer the symbolic point (len == n exactly): it is
				// what lets an index bounded by one make(n) slice prove
				// in-bounds against its same-sized siblings.
				if p, ok := fa.exprPoint(env, x.Args[1]); ok {
					return Interval{Lo: p, Hi: p}, true
				}
				iv := fa.Eval(env, x.Args[1])
				return Interval{Lo: ConstBound(0), Hi: PosInf()}.Meet(iv), true
			}
		}
	case *ast.CompositeLit:
		if _, isSlice := fa.info.Types[x].Type.Underlying().(*types.Slice); isSlice {
			return Point(int64(len(x.Elts))), len(x.Elts) == literalLen(x)
		}
	}
	return Interval{}, false
}

// literalLen counts composite-literal elements, bailing on keyed
// entries (sparse literals have len > element count).
func literalLen(x *ast.CompositeLit) int {
	for _, el := range x.Elts {
		if _, keyed := el.(*ast.KeyValueExpr); keyed {
			return -1
		}
	}
	return len(x.Elts)
}

func (fa *funcAnalysis) applyDecl(env *Env, s *ast.DeclStmt) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, v := range vs.Values {
			fa.assertExpr(env, v)
		}
		for i, name := range vs.Names {
			o := fa.objOf(name)
			if o == nil {
				continue
			}
			env.killObj(o)
			if len(vs.Values) == len(vs.Names) {
				if fa.trackVar(o) {
					env.setVar(o, fa.typeRangeOf(name).Meet(fa.Eval(env, vs.Values[i])))
				}
				if fa.trackLen(o) {
					if ln, ok := fa.extentOf(env, vs.Values[i]); ok {
						env.setLen(o, ln)
					}
				}
			} else if len(vs.Values) == 0 {
				// Zero value: 0 for integers, empty for slices/strings.
				if fa.trackVar(o) {
					env.setVar(o, Point(0))
				}
				if fa.trackLen(o) {
					if _, isSlice := o.Type().Underlying().(*types.Slice); isSlice {
						env.setLen(o, Point(0))
					}
				}
			}
		}
	}
}

// assertExpr records the facts implied by successfully evaluating e:
// every executed s[i] proves 0 <= i <= len(s)-1 (and len(s) >= i+1),
// every s[a:b] proves a >= 0. FuncLit bodies are skipped — they run
// elsewhere.
func (fa *funcAnalysis) assertExpr(env *Env, e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.IndexExpr:
			fa.assertIndex(env, x)
		case *ast.SliceExpr:
			if x.Low != nil {
				fa.refineExpr(env, x.Low, boundLower, ConstBound(0))
			}
		}
		return true
	})
}

func (fa *funcAnalysis) assertIndex(env *Env, x *ast.IndexExpr) {
	t, ok := fa.info.Types[x.X]
	if !ok || t.Type == nil {
		return
	}
	switch t.Type.Underlying().(type) {
	case *types.Map, *types.Signature:
		return // map access / generic instantiation: no bounds
	}
	fa.refineExpr(env, x.Index, boundLower, ConstBound(0))
	if n, ok := arrayLen(t.Type); ok {
		fa.refineExpr(env, x.Index, boundUpper, ConstBound(n-1))
		return
	}
	if o := fa.lenIdent(x.X); o != nil {
		fa.refineExpr(env, x.Index, boundUpper, SymBound(o, 0, true).AddK(-1))
		// The reverse fact: len(o) >= index+1, exactly when the index
		// has a symbolic point form. This is what makes the
		// `_ = s[n-1]` hint idiom teach the prover len(s) >= n.
		if p, exact := fa.exprPoint(env, x.Index); exact && !p.refs(o) {
			cur := Full()
			if lv, ok := env.lens[o]; ok {
				cur = lv
			}
			nb := p.AddK(1)
			switch {
			case leqBound(nb, cur.Lo):
				// already implied by the tracked floor
			case leqBound(cur.Lo, nb), cur.Lo.Sym == nil && cur.Lo.K <= 0:
				cur.Lo = nb
			default:
				// Incomparable with an informative floor (a make(n)
				// length, a positive constant): keep the floor — it is
				// what cross-slice index proofs substitute through,
				// and an adopted i+1 would only be widened away.
			}
			env.setLen(o, cur)
		}
	}
}
