// Package phasediscipline enforces the concurrent.Mailboxes row-writer/
// column-reader contract as a CFG dataflow over phase tokens.
//
// Mailboxes is a k×k matrix of append-only message boxes with no
// internal locking. Its safety argument is purely phase-structural
// (DESIGN.md §10): during an emit phase, goroutine p writes only row p
// (Put); during an apply phase, goroutine q reads only column q
// (Drain); and the two phases are separated by a superstep barrier (the
// return of a fork-join combinator, or wg.Wait). A goroutine that
// Drains a mailbox it has Put into since the last barrier is reading a
// matrix that concurrent row-writers may still be appending to — the
// exact race the phase split exists to prevent.
//
// The dataflow: the fact is the set of mailbox variables with a raised
// phase token — "a Put may have executed on this goroutine's behalf
// with no barrier since". Put raises the token, and so does spawning a
// putter (a go statement or fork-join body that Puts: the writer runs
// concurrently until a barrier joins it). A barrier call lowers every
// token, with a combinator's transfer ordered as [spawned body's
// effects, then barrier] — the combinator joins its workers before
// returning, so their Puts are sealed. Drain on a raised token is the
// violation. The meet is may-union: a token raised on ANY path into a
// join stays raised.
//
// Calls compose through sequence-aware summaries, not raw effect sets:
// a callee contributes the tokens still raised at its RETURN
// (exitRaised) and the mailboxes it may Drain before reaching its own
// first barrier (entryDrains). This is what lets the partitioned
// engine pass as written — Traverse puts, barriers, and drains
// internally, so its exitRaised is empty and workloads may call it in
// a loop — while a helper that leaks an unbarriered Put to its caller
// still raises the token at every call site.
//
// Mailbox identity is the *types.Var of the field or variable holding
// the mailbox (the same object in every method of a state struct), so
// the discipline is tracked per mailbox, not globally. Pending is
// phase-neutral (it reads counters, owned by the orchestrator between
// phases) and carries no token effect.
//
// The runtime half of this contract is (*Mailboxes).Validate in
// internal/concurrent — the doc comments cross-reference each other.
package phasediscipline

import (
	"go/ast"
	"go/types"

	"github.com/graphbig/graphbig-go/internal/analysis"
)

// Analyzer is the phasediscipline module analyzer.
var Analyzer = &analysis.Analyzer{
	Name:      "phasediscipline",
	Doc:       "Mailboxes row-writer/column-reader discipline: no Drain after a same-goroutine Put without a superstep barrier between them",
	RunModule: run,
}

var scope = []string{
	"internal/engine",
	"internal/concurrent",
	"internal/workloads",
}

// effects is one declared function's sequence-aware mailbox summary.
type effects struct {
	// exitRaised: mailboxes whose phase token may still be raised when
	// the function returns — an unbarriered Put leaks to the caller.
	exitRaised map[*types.Var]bool
	// entryDrains: mailboxes the function may Drain before its own
	// first barrier — a caller-side raised token flows into the race.
	entryDrains map[*types.Var]bool
}

// tokens is the dataflow fact: raised phase tokens per mailbox var. The
// nil key is the "no barrier yet on some path" sentinel entryDrains
// collection keys on.
type tokens = map[*types.Var]bool

func run(mp *analysis.ModulePass) error {
	m := mp.Module
	cg := m.CallGraph()
	c := &checker{mp: mp, cg: cg, sums: map[*analysis.CGNode]*effects{}}
	return c.run(m)
}

func (c *checker) run(m *analysis.Module) error {
	decls := c.cg.Declared()
	for _, n := range decls {
		c.sums[n] = &effects{exitRaised: tokens{}, entryDrains: tokens{}}
	}
	// Global fixpoint: each round re-evaluates every declaration's
	// dataflow with the current summaries; effect sets only grow, so
	// this terminates.
	for changed := true; changed; {
		changed = false
		for _, n := range decls {
			exit, drains := c.evalDecl(m, n)
			sum := c.sums[n]
			for mb := range exit {
				if mb != nil && !sum.exitRaised[mb] {
					sum.exitRaised[mb] = true
					changed = true
				}
			}
			for mb := range drains {
				if !sum.entryDrains[mb] {
					sum.entryDrains[mb] = true
					changed = true
				}
			}
		}
	}
	// Reporting pass over every unit in scope.
	for _, n := range decls {
		if n.Pkg == nil || !analysis.HasPathSuffix(n.Pkg.PkgPath, scope...) {
			continue
		}
		c.info = n.Pkg.TypesInfo
		c.checkUnit(n.Decl, m.CFGOf(n))
		for _, lit := range analysis.FuncLits(n.Decl) {
			c.checkUnit(lit, analysis.BuildCFG(lit))
		}
	}
	return nil
}

type checker struct {
	mp   *analysis.ModulePass
	cg   *analysis.CallGraph
	info *types.Info
	sums map[*analysis.CGNode]*effects

	// collection sinks for the current evaluation:
	drains   tokens            // entryDrains being collected (nil = off)
	reported map[ast.Node]bool // de-dup for the reporting pass (nil = off)
}

// evalDecl runs the token dataflow over one declaration and returns the
// may-raised set at exit and the drains reachable before a barrier.
func (c *checker) evalDecl(m *analysis.Module, n *analysis.CGNode) (tokens, tokens) {
	c.info = n.Pkg.TypesInfo
	c.drains = tokens{}
	c.reported = nil
	cfg := m.CFGOf(n)
	res := c.solve(cfg)
	c.info = nil
	drains := c.drains
	c.drains = nil
	return res.In[cfg.Exit], drains
}

func (c *checker) solve(cfg *analysis.CFG) analysis.Result[tokens] {
	lat := analysis.SetLattice(func(b *analysis.Block, in tokens) tokens {
		if in == nil {
			return nil
		}
		out := analysis.CloneSet(in)
		for _, n := range b.Nodes {
			c.apply(n, out)
		}
		return out
	})
	// Boundary: clean tokens, nil sentinel raised — no barrier seen yet.
	lat.Boundary = tokens{nil: true}
	return analysis.Solve(cfg, analysis.Forward, lat)
}

func (c *checker) checkUnit(unit ast.Node, cfg *analysis.CFG) {
	if !c.mentionsMailbox(unit) {
		return
	}
	c.reported = map[ast.Node]bool{}
	res := c.solve(cfg)
	// Walk each reachable block once from its solved input so every
	// violation reports exactly once, at the fixed point.
	for _, b := range cfg.Reachable() {
		in := res.In[b]
		if in == nil {
			continue
		}
		out := analysis.CloneSet(in)
		for _, n := range b.Nodes {
			c.apply(n, out)
		}
	}
	c.reported = nil
}

// apply folds one CFG node's mailbox effects into the token set. When
// c.reported is non-nil violations are reported; when c.drains is
// non-nil pre-barrier drains are collected.
func (c *checker) apply(n ast.Node, dirty tokens) {
	if _, ok := n.(*ast.DeferStmt); ok {
		return // effects run in the defer.run exit blocks
	}
	if g, ok := n.(*ast.GoStmt); ok {
		// A spawned writer's Puts run concurrently until a barrier.
		for mb := range c.payloadPuts(g) {
			dirty[mb] = true
		}
		// The payload call's arguments still evaluate here.
		for _, arg := range g.Call.Args {
			c.apply(arg, dirty)
		}
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok {
			c.applyCall(call, dirty)
		}
		return true
	})
}

func (c *checker) applyCall(call *ast.CallExpr, dirty tokens) {
	info := c.info
	// Direct mailbox operations.
	if mb, op, ok := analysis.MailboxOp(info, call); ok {
		switch op {
		case "put":
			dirty[mb] = true
		case "drain":
			if dirty[mb] {
				c.report(call, "Drain of mailbox %q may follow this goroutine's own Put with no superstep barrier between them (row-writer/column-reader phase discipline)", mb.Name())
			}
			if c.drains != nil && dirty[nil] {
				c.drains[mb] = true
			}
		}
		return
	}
	// Fork-join combinator: the spawned body's effects land first (the
	// workers run them), then the join seals every token.
	if _, body, ok := analysis.ParallelCombinator(info, call); ok {
		if lit, ok := ast.Unparen(body).(*ast.FuncLit); ok {
			for mb := range c.litPuts(lit) {
				dirty[mb] = true
			}
		}
		clear(dirty)
		return
	}
	// wg.Wait is a barrier: every spawned writer is joined.
	if _, op, ok := analysis.WaitGroupOp(info, call); ok && op == "Wait" {
		clear(dirty)
		return
	}
	// Delegation through sequence-aware summaries.
	if sum := c.calleeSum(call); sum != nil {
		for mb := range sum.entryDrains {
			if dirty[mb] {
				c.report(call, "call drains mailbox %q while this goroutine's own Put is unbarriered (row-writer/column-reader phase discipline)", mb.Name())
			}
			if c.drains != nil && dirty[nil] {
				c.drains[mb] = true
			}
		}
		for mb := range sum.exitRaised {
			dirty[mb] = true
		}
	}
}

func (c *checker) calleeSum(call *ast.CallExpr) *effects {
	fn := analysis.Callee(c.info, call)
	if fn == nil {
		return nil
	}
	callee := c.cg.Node(fn)
	if callee == nil {
		return nil
	}
	return c.sums[callee]
}

// payloadPuts: the mailboxes a go statement's payload may Put into
// (concurrently, from the spawner's perspective).
func (c *checker) payloadPuts(g *ast.GoStmt) tokens {
	site := analysis.SpawnSite{Go: g, Call: g.Call}
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		site.Lit = fun
	case *ast.SelectorExpr:
		site.Callee, _ = c.info.Uses[fun.Sel].(*types.Func)
	case *ast.Ident:
		site.Callee, _ = c.info.Uses[fun].(*types.Func)
	}
	if site.Lit != nil {
		return c.litPuts(site.Lit)
	}
	if site.Callee != nil {
		if callee := c.cg.Node(site.Callee); callee != nil {
			if sum := c.sums[callee]; sum != nil {
				return sum.exitRaised
			}
		}
	}
	return nil
}

// litPuts collects the mailboxes a spawned literal may Put into, at any
// depth, including callee leaks (exitRaised).
func (c *checker) litPuts(lit *ast.FuncLit) tokens {
	puts := tokens{}
	ast.Inspect(lit.Body, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if mb, op, ok := analysis.MailboxOp(c.info, call); ok && op == "put" {
			puts[mb] = true
		}
		if sum := c.calleeSum(call); sum != nil {
			for mb := range sum.exitRaised {
				puts[mb] = true
			}
		}
		return true
	})
	return puts
}

func (c *checker) report(at *ast.CallExpr, format string, args ...any) {
	if c.reported == nil || c.reported[at] {
		return
	}
	c.reported[at] = true
	c.mp.Report(at.Pos(), format, args...)
}

// mentionsMailbox gates the reporting dataflow on units that touch a
// mailbox (directly or through a summary) — the common case skips the
// solve.
func (c *checker) mentionsMailbox(unit ast.Node) bool {
	found := false
	visit := func(m ast.Node) bool {
		if found {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, _, ok := analysis.MailboxOp(c.info, call); ok {
			found = true
			return false
		}
		if sum := c.calleeSum(call); sum != nil && (len(sum.exitRaised) > 0 || len(sum.entryDrains) > 0) {
			found = true
			return false
		}
		if _, body, ok := analysis.ParallelCombinator(c.info, call); ok {
			if lit, ok := ast.Unparen(body).(*ast.FuncLit); ok && len(c.litPuts(lit)) > 0 {
				found = true
				return false
			}
		}
		return true
	}
	// Walk the whole unit including nested literals: a combinator body
	// or spawned closure putting/draining makes the unit interesting.
	if body := unitOf(unit); body != nil {
		ast.Inspect(body, func(m ast.Node) bool { return visit(m) })
	}
	return found
}

func unitOf(unit ast.Node) *ast.BlockStmt {
	switch u := unit.(type) {
	case *ast.FuncDecl:
		return u.Body
	case *ast.FuncLit:
		return u.Body
	}
	return nil
}
