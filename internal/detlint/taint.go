package detlint

import (
	"go/ast"
	"go/types"
	"strings"
)

// This file is the interprocedural taint closure behind nowallclock. It
// marks every module function that reads the wall clock directly or
// calls, however many helper hops away, a function that does. The rule
// then flags calls to marked functions from deterministic packages, so
// a wall-clock read laundered through a helper outside the deterministic
// set (a cmd utility, a benchmark harness) is reported where
// deterministic code reaches it.
//
// noglobalrand needs no such closure: a function that touches math/rand
// sits in a file that imports it, and that import is reported
// module-wide.

// wallClock returns the display name ("time.Now") of a selector that
// names one of the wallClockFuncs of package time, or "".
func wallClock(info *types.Info, sel *ast.SelectorExpr) string {
	if importedPath(info, sel) == "time" && wallClockFuncs[sel.Sel.Name] {
		return "time." + sel.Sel.Name
	}
	return ""
}

// importedPath returns the path of the package a qualified identifier
// names, or "" when sel is not pkg.Name.
func importedPath(info *types.Info, sel *ast.SelectorExpr) string {
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}

// taintFact explains why one module function is tainted: the wall-clock
// function it reaches and the next hop toward it (nil when the function
// reads the clock directly). Following via links reconstructs a
// shortest witness chain for the finding message.
type taintFact struct {
	source string
	via    *types.Func
}

// buildTaint seeds taint at every module function that reads the wall
// clock directly, then propagates it to callers over the call graph
// (BFS, so each fact records a shortest witness chain). A direct read
// whose line carries a nowallclock suppression is a documented-safe use
// and does not seed taint; the engine credits the directive so it is
// not reported stale.
func buildTaint(cg *callGraph) map[*types.Func]*taintFact {
	taint := make(map[*types.Func]*taintFact)
	var queue []*types.Func
	for _, fi := range cg.funcs {
		if name := directTaint(cg, fi); name != "" {
			taint[fi.fn] = &taintFact{source: name}
			queue = append(queue, fi.fn)
		}
	}
	callers := make(map[*types.Func][]*types.Func)
	for _, fi := range cg.funcs {
		for _, callee := range cg.callees[fi.fn] {
			callers[callee] = append(callers[callee], fi.fn)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, caller := range callers[fn] {
			if _, done := taint[caller]; done {
				continue
			}
			taint[caller] = &taintFact{source: taint[fn].source, via: fn}
			queue = append(queue, caller)
		}
	}
	return taint
}

// directTaint returns the name of the first unsanctioned wall-clock read
// in the function's body, or "".
func directTaint(cg *callGraph, fi *funcInfo) string {
	name := ""
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if s := wallClock(fi.pkg.Info, sel); s != "" &&
			!cg.mod.sup.sanctions(cg.mod.Fset.Position(sel.Pos()), NoWallClock.Name) {
			name = s
		}
		return true
	})
	return name
}

// reportTaintedCall flags call when it may invoke a module function that
// reaches the wall clock. nowallclock calls it only inside deterministic
// packages.
func reportTaintedCall(p *Pass, call *ast.CallExpr) {
	cg, taint := p.Module.cg, p.Module.clock
	for _, callee := range cg.resolveCall(p.Pkg.Info, call) {
		t := taint[callee]
		if t == nil {
			continue
		}
		p.Reportf(call.Pos(), "call to %s reaches %s in deterministic package %s (%s); %s",
			cg.qualifiedName(callee, p.Pkg), t.source, p.Pkg.ImportPath,
			taintChain(cg, taint, callee, p.Pkg), wallClockAdvice)
	}
}

// taintChain renders the witness path from fn to its source.
func taintChain(cg *callGraph, taint map[*types.Func]*taintFact, fn *types.Func, from *Package) string {
	var parts []string
	for cur := fn; cur != nil; {
		parts = append(parts, cg.qualifiedName(cur, from))
		t := taint[cur]
		if t == nil {
			break
		}
		if t.via == nil {
			parts = append(parts, t.source)
			break
		}
		cur = t.via
	}
	return strings.Join(parts, " -> ")
}
