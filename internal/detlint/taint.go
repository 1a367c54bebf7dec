package detlint

import (
	"go/ast"
	"go/types"
	"strings"
)

// This file is the interprocedural taint closure behind nowallclock and
// noglobalrand. For one nondeterminism source it marks every module
// function that touches the source directly or calls, however many
// helper hops away, a function that does. The rules then flag calls to
// marked functions from deterministic packages, so a wall-clock read or
// a math/rand draw laundered through a helper outside the deterministic
// set (a cmd utility, a benchmark harness) is reported where
// deterministic code reaches it.

// source classifies a selector as a direct use of one nondeterminism
// source, returning its display name ("time.Now", "rand.Intn") or "".
type source func(info *types.Info, sel *ast.SelectorExpr) string

// wallClock is the nowallclock source: the wallClockFuncs of package
// time.
func wallClock(info *types.Info, sel *ast.SelectorExpr) string {
	if importedPath(info, sel) == "time" && wallClockFuncs[sel.Sel.Name] {
		return "time." + sel.Sel.Name
	}
	return ""
}

// globalRand is the noglobalrand source: any selector of math/rand or
// math/rand/v2.
func globalRand(info *types.Info, sel *ast.SelectorExpr) string {
	if forbiddenRandImports[importedPath(info, sel)] {
		return "rand." + sel.Sel.Name
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

// taintFact explains why one module function is tainted: the ultimate
// source it reaches and the next hop toward it (nil when the function
// touches the source directly). Following via links reconstructs a
// shortest witness chain for the finding message.
type taintFact struct {
	source string
	via    *types.Func
}

// buildTaint seeds taint at every module function that directly touches
// src, then propagates it to callers over the call graph (BFS, so each
// fact records a shortest witness chain). A directly-touching site whose
// line carries a suppression for rule is a documented-safe use and does
// not seed taint; the engine credits the directive so it is not reported
// stale.
func buildTaint(cg *callGraph, rule string, src source) map[*types.Func]*taintFact {
	taint := make(map[*types.Func]*taintFact)
	var queue []*types.Func
	for _, fi := range cg.funcs {
		if name := directTaint(cg, fi, rule, src); name != "" {
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

// directTaint returns the name of the first unsanctioned use of src in
// the function's body, or "".
func directTaint(cg *callGraph, fi *funcInfo, rule string, src source) string {
	name := ""
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if s := src(fi.pkg.Info, sel); s != "" &&
			!cg.mod.sup.sanctions(cg.mod.Fset.Position(sel.Pos()), rule) {
			name = s
		}
		return true
	})
	return name
}

// reportTaintedCall flags call when it may invoke a module function that
// reaches the source taint was built for. The rules call it only inside
// deterministic packages.
func reportTaintedCall(p *Pass, taint map[*types.Func]*taintFact, call *ast.CallExpr, advice string) {
	cg := p.Module.facts.cg
	for _, callee := range cg.resolveCall(p.Pkg.Info, call) {
		t := taint[callee]
		if t == nil {
			continue
		}
		p.Reportf(call.Pos(), "call to %s reaches %s in deterministic package %s (%s); %s",
			cg.qualifiedName(callee, p.Pkg), t.source, p.Pkg.ImportPath,
			taintChain(cg, taint, callee, p.Pkg), advice)
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
