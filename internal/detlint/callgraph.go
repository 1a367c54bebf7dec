package detlint

import (
	"go/ast"
	"go/types"
	"sort"
	"sync"
)

// callGraph is the whole-module call graph the interprocedural checks
// (the taint closure of nowallclock, the escape summaries of
// eventretain, jobretain and scratchescape) run their dataflow passes
// over.
//
// Nodes are the module's own functions and methods — every *types.Func
// whose declaration (with a body) was loaded. Edges are resolved
// statically:
//
//   - direct calls to package-level functions and concrete methods bind
//     to their single declaration;
//   - calls through an interface method are resolved with the method-set
//     heuristic (class-hierarchy analysis): the callee set is every
//     module-declared method that implements the interface method, so a
//     property proven for all implementations holds at the call site;
//   - calls through plain function values (fields, parameters, closures)
//     resolve to nothing. This is the deliberate precision limit: the
//     module's hot paths call through interfaces (policies.Ctx,
//     policies.Policy), not function tables, and the few func-typed hooks
//     (sim event closures, workpool bodies) never carry the facts these
//     analyzers track. DESIGN.md §14 documents the gap.
//
// The graph is built once per Run (inside Module.buildFacts) and is
// immutable afterwards, so the per-package analyzer goroutines can share
// it without locks.
type callGraph struct {
	mod *Module

	// funcs holds every module function in deterministic declaration
	// order (packages sorted by import path, files and declarations in
	// parse order); infos indexes the same records by object.
	funcs []*funcInfo
	infos map[*types.Func]*funcInfo

	// callees maps a function to the deduplicated, deterministically
	// ordered set of module-internal functions it may call.
	callees map[*types.Func][]*types.Func

	// named lists every named (non-alias) type declared in the module,
	// for interface-implementation resolution.
	named []*types.Named

	// implMemo caches interface-method -> implementations lookups. The
	// mutex covers post-build misses (a call expression in a package
	// loaded for type information only is not walked during build).
	implMu   sync.Mutex
	implMemo map[*types.Func][]*types.Func
}

// funcInfo ties a module function object to its syntax and package.
type funcInfo struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package
}

// buildCallGraph constructs the graph over every loaded package.
func buildCallGraph(mod *Module) *callGraph {
	cg := &callGraph{
		mod:      mod,
		infos:    make(map[*types.Func]*funcInfo),
		callees:  make(map[*types.Func][]*types.Func),
		implMemo: make(map[*types.Func][]*types.Func),
	}
	pkgs := mod.allPackages()
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				info := &funcInfo{fn: fn, decl: fd, pkg: pkg}
				cg.funcs = append(cg.funcs, info)
				cg.infos[fn] = info
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				cg.named = append(cg.named, named)
			}
		}
	}
	// Edge construction; this walk also warms the CHA memo for every
	// interface method the module calls.
	for _, fi := range cg.funcs {
		seen := make(map[*types.Func]bool)
		var edges []*types.Func
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, callee := range cg.resolveCall(fi.pkg.Info, call) {
				if !seen[callee] {
					seen[callee] = true
					edges = append(edges, callee)
				}
			}
			return true
		})
		sort.Slice(edges, func(i, j int) bool { return declLess(cg.infos[edges[i]], cg.infos[edges[j]]) })
		cg.callees[fi.fn] = edges
	}
	return cg
}

// declLess orders function records by source position for deterministic
// iteration.
func declLess(a, b *funcInfo) bool {
	if a.pkg.ImportPath != b.pkg.ImportPath {
		return a.pkg.ImportPath < b.pkg.ImportPath
	}
	return a.decl.Pos() < b.decl.Pos()
}

// resolveCall returns the module-declared functions a call expression may
// invoke: one for a direct call, the implementation set for an interface
// method call, nothing for a plain function-value call.
func (cg *callGraph) resolveCall(info *types.Info, call *ast.CallExpr) []*types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			if _, declared := cg.infos[fn]; declared {
				return []*types.Func{fn}
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			m, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
				return cg.implementations(m, iface)
			}
			if _, declared := cg.infos[m]; declared {
				return []*types.Func{m}
			}
			return nil
		}
		// Qualified package function (pkg.F).
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			if _, declared := cg.infos[fn]; declared {
				return []*types.Func{fn}
			}
		}
	}
	return nil
}

// implementations resolves an interface method to every module-declared
// concrete method that satisfies it (CHA over the module's method sets).
func (cg *callGraph) implementations(m *types.Func, iface *types.Interface) []*types.Func {
	cg.implMu.Lock()
	defer cg.implMu.Unlock()
	if impls, ok := cg.implMemo[m]; ok {
		return impls
	}
	var impls []*types.Func
	for _, named := range cg.named {
		if types.IsInterface(named) {
			continue
		}
		var recv types.Type = named
		if !types.Implements(recv, iface) {
			recv = types.NewPointer(named)
			if !types.Implements(recv, iface) {
				continue
			}
		}
		obj, _, _ := types.LookupFieldOrMethod(recv, true, m.Pkg(), m.Name())
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if _, declared := cg.infos[fn]; declared {
			impls = append(impls, fn)
		}
	}
	sort.Slice(impls, func(i, j int) bool { return declLess(cg.infos[impls[i]], cg.infos[impls[j]]) })
	cg.implMemo[m] = impls
	return impls
}

// qualifiedName renders a function for findings: Name for package-level
// functions, (*Recv).Name / Recv.Name for methods, qualified with the
// package name when the function lives in another package.
func (cg *callGraph) qualifiedName(fn *types.Func, from *Package) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		name = types.TypeString(sig.Recv().Type(), types.RelativeTo(fn.Pkg())) + "." + name
		if recv, ok := sig.Recv().Type().(*types.Pointer); ok {
			name = "(*" + types.TypeString(recv.Elem(), types.RelativeTo(fn.Pkg())) + ")." + fn.Name()
		}
	}
	if fn.Pkg() != nil && fn.Pkg().Path() != from.ImportPath {
		if fi, ok := cg.infos[fn]; ok {
			return fi.pkg.Name + "." + name
		}
		return fn.Pkg().Name() + "." + name
	}
	return name
}
