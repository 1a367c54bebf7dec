package detlint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ScratchEscape machine-enforces the scratch-lifetime contract from
// DESIGN.md §11: storage handed out by policies.Ctx.Scratch() — the
// bundle itself and the slices inside it — is valid only for the current
// scheduling pass. Dispatch copies what it must keep (the stable copy
// lands in j.Placement); everything else derived from scratch dies when
// the pass returns. The same applies to the backfilling profile's
// retained arrays, which earliestStart hands out under a
// //detlint:scratch annotation.
//
// The analyzer tracks scratch-derived values through local assignments,
// reslicing, and module-internal calls (a function returning a
// scratch-derived value propagates the fact to its callers), and flags:
//
//   - stores into struct fields (except back into the Scratch bundle),
//     package-level variables, or slice/array/map elements
//   - channel sends and composite literals capturing scratch
//   - appending a scratch slice header to a slice (a spread copy,
//     append(dst, s...), copies the elements and is fine)
//   - returning scratch from an exported function or method — the
//     exported API boundary is where callers assume stable storage —
//     unless the function is annotated //detlint:scratch
//   - passing scratch to a function whose parameter escapes (via the
//     same parameter-escape engine eventretain and jobretain use)
var ScratchEscape = &Analyzer{
	Name: "scratchescape",
	Doc:  "no retaining policies.Ctx.Scratch() storage in fields/globals or returning it across the exported API",
	Run:  runScratchEscape,
}

const scratchAdvice = "scratch is valid only for the current scheduling pass; copy what must persist"

// scratchFacts is the whole-module scratch dataflow: which functions
// return scratch-derived values (per result index), plus parameter-escape
// summaries for reference-typed parameters.
type scratchFacts struct {
	named   *types.TypeName // policies.Scratch; nil disables the rule
	ef      *escapeFacts
	returns map[*types.Func]map[int]bool
}

// scratchSpec configures the escape engine for scratch values. Any
// reference-typed parameter is summarized — the summaries only matter at
// call sites where a scratch-derived argument actually flows in.
func scratchSpec(sf *scratchFacts) *handleSpec {
	return &handleSpec{
		rule:     ScratchEscape.Name,
		what:     "scratch-derived storage",
		advice:   scratchAdvice,
		fields:   true,
		elements: true,
		channels: true,
		globals:  true,
		track: func(t types.Type) bool {
			switch t.Underlying().(type) {
			case *types.Slice, *types.Pointer, *types.Map:
				return true
			}
			return false
		},
		exemptStore: func(pkg *Package, lhs ast.Expr) bool {
			sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
			return ok && sf.isScratchBundle(pkg.Info.TypeOf(sel.X))
		},
	}
}

// buildScratchFacts resolves the Scratch type and computes the returns
// facts to a fixed point (a function returning another function's
// scratch-derived result is itself scratch-returning).
func buildScratchFacts(cg *callGraph) *scratchFacts {
	sf := &scratchFacts{returns: make(map[*types.Func]map[int]bool)}
	pol := cg.mod.pkgs[cg.mod.Path+"/internal/policies"]
	if pol == nil {
		return sf
	}
	tn, _ := pol.Types.Scope().Lookup("Scratch").(*types.TypeName)
	if tn == nil {
		return sf
	}
	sf.named = tn
	sf.ef = buildEscapeFacts(cg, scratchSpec(sf))

	// Annotated functions seed the returns facts: every reference-typed
	// result of a //detlint:scratch function is scratch.
	for fn := range cg.mod.scratch {
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			continue
		}
		for i := 0; i < sig.Results().Len(); i++ {
			switch sig.Results().At(i).Type().Underlying().(type) {
			case *types.Slice, *types.Pointer, *types.Map:
				sf.markReturn(fn, i)
			}
		}
	}
	// Propagate: re-derive each function until no new returns appear.
	for round := 0; round < 16; round++ {
		changed := false
		for _, fi := range cg.funcs {
			local := sf.derive(cg, fi)
			results := sf.returnedTracked(cg, fi, local)
			for _, ri := range results {
				if !sf.returns[fi.fn][ri] {
					sf.markReturn(fi.fn, ri)
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return sf
}

func (sf *scratchFacts) markReturn(fn *types.Func, ri int) {
	m := sf.returns[fn]
	if m == nil {
		m = make(map[int]bool)
		sf.returns[fn] = m
	}
	m[ri] = true
}

// isScratchBundle reports whether t is policies.Scratch or a pointer to
// it.
func (sf *scratchFacts) isScratchBundle(t types.Type) bool {
	if t == nil || sf.named == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj() == sf.named
}

// isScratchOrigin reports whether call is a Scratch() method call
// returning the bundle — the Ctx boundary where pass-scoped storage is
// handed out.
func (sf *scratchFacts) isScratchOrigin(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Scratch" {
		return false
	}
	if _, ok := info.Selections[sel]; !ok {
		return false // qualified name, not a method call
	}
	return sf.isScratchBundle(info.TypeOf(call))
}

// tracked reports whether expr is scratch-derived given the local set:
// a tracked local, a field/reslice/element of a tracked value, a
// Scratch() origin call, or a call returning scratch (result 0 in
// single-value context; multi-value calls are handled at assignments).
func (sf *scratchFacts) tracked(cg *callGraph, info *types.Info, local map[types.Object]bool, expr ast.Expr) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		return obj != nil && local[obj]
	case *ast.SelectorExpr:
		return sf.tracked(cg, info, local, e.X)
	case *ast.SliceExpr:
		return sf.tracked(cg, info, local, e.X)
	case *ast.IndexExpr:
		return sf.tracked(cg, info, local, e.X)
	case *ast.CallExpr:
		if sf.isScratchOrigin(info, e) {
			return true
		}
		for _, callee := range cg.resolveCall(info, e) {
			if sf.returns[callee][0] {
				return true
			}
		}
	}
	return false
}

// derive computes the set of local objects holding scratch-derived
// values, iterating the function's assignments to a fixed point.
func (sf *scratchFacts) derive(cg *callGraph, fi *funcInfo) map[types.Object]bool {
	info := fi.pkg.Info
	local := make(map[types.Object]bool)
	for round := 0; round < 8; round++ {
		changed := false
		mark := func(lhs ast.Expr) {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok || id.Name == "_" {
				return
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj != nil && !local[obj] {
				local[obj] = true
				changed = true
			}
		}
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			if len(as.Lhs) == len(as.Rhs) {
				for i, rhs := range as.Rhs {
					if sf.tracked(cg, info, local, rhs) {
						mark(as.Lhs[i])
					}
				}
				return true
			}
			if len(as.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, callee := range cg.resolveCall(info, call) {
				for ri := range sf.returns[callee] {
					if ri < len(as.Lhs) {
						mark(as.Lhs[ri])
					}
				}
			}
			return true
		})
		if !changed {
			break
		}
	}
	return local
}

// returnedTracked lists the result indices of fi's own return statements
// that yield tracked values. Returns inside function literals belong to
// the literal, not fi, and are skipped.
func (sf *scratchFacts) returnedTracked(cg *callGraph, fi *funcInfo, local map[types.Object]bool) []int {
	var out []int
	seen := make(map[int]bool)
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			for i, res := range n.Results {
				if !seen[i] && sf.tracked(cg, fi.pkg.Info, local, res) {
					seen[i] = true
					out = append(out, i)
				}
			}
		}
		return true
	}
	ast.Inspect(fi.decl.Body, walk)
	return out
}

func runScratchEscape(p *Pass) {
	sf := p.Module.facts.scratch
	if sf.named == nil {
		return
	}
	cg := p.Module.facts.cg
	info := p.Pkg.Info
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := info.Defs[fd.Name].(*types.Func)
			fi := cg.infos[fn]
			if fi == nil {
				continue
			}
			sf.checkFunc(p, cg, fi)
		}
	}
}

// checkFunc reports every scratch sink inside one function.
func (sf *scratchFacts) checkFunc(p *Pass, cg *callGraph, fi *funcInfo) {
	info := fi.pkg.Info
	local := sf.derive(cg, fi)
	spec := sf.ef.spec
	exported := fi.fn.Exported() && !cg.mod.scratch[fi.fn]
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				if !sf.tracked(cg, info, local, rhs) {
					continue
				}
				if spec.exemptStore(fi.pkg, n.Lhs[i]) {
					continue
				}
				if why := classifyStore(spec, info, n.Lhs[i]); why != "" {
					p.Reportf(n.Lhs[i].Pos(), "%s scratch-derived storage; %s",
						strings.Replace(why, "stores it in", "retains scratch in", 1), scratchAdvice)
				}
			}
		case *ast.SendStmt:
			if sf.tracked(cg, info, local, n.Value) {
				p.Reportf(n.Pos(), "sending scratch-derived storage over a channel; %s", scratchAdvice)
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				v := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if id, ok := ast.Unparen(v).(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil && local[obj] {
						p.Reportf(v.Pos(), "composite literal captures scratch-derived storage; %s", scratchAdvice)
					}
				}
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); isBuiltin {
					for _, a := range n.Args[1:] {
						if n.Ellipsis.IsValid() && a == n.Args[len(n.Args)-1] {
							continue // append(dst, s...) copies the elements
						}
						if sf.tracked(cg, info, local, a) {
							p.Reportf(a.Pos(), "appending a scratch-derived slice header to a slice; %s", scratchAdvice)
						}
					}
					return true
				}
			}
			reportEscapingArgs(p, sf.ef, n, func(arg ast.Expr) bool { return sf.tracked(cg, info, local, arg) })
		}
		return true
	})
	// Returns across the exported API boundary.
	if exported {
		walk := func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				for _, res := range n.Results {
					if sf.tracked(cg, info, local, res) {
						p.Reportf(res.Pos(),
							"exported %s returns scratch-derived storage across the API boundary; %s (or annotate //detlint:scratch)",
							fi.fn.Name(), scratchAdvice)
					}
				}
			}
			return true
		}
		ast.Inspect(fi.decl.Body, walk)
	}
}
