package detlint

import (
	"go/ast"
	"go/types"
)

// EventRetain flags code that stores sim.Event handles where they can
// outlive the event. The kernel recycles event slots through a
// generation-checked pool: the moment an event fires or is cancelled its
// slot is reused, and a retained handle silently goes stale (Cancel
// reports false for the wrong reason, and a colliding generation would
// act on someone else's event). Handles are meant to be used
// immediately or not kept at all; durable state belongs in (time,
// payload) form.
//
// Flagged shapes, everywhere outside internal/sim:
//
//   - struct fields and package-level variables whose type contains
//     sim.Event
//   - append to a slice, assignment into an index expression, and slice,
//     array or map literals whose element (or key) type contains
//     sim.Event
//   - channel types whose element type contains sim.Event
//   - passing a handle to a module function that stores it in any of
//     these places, directly or through further forwarding
var EventRetain = &Analyzer{
	Name: "eventretain",
	Doc:  "no storing pooled sim.Event handles in fields, slices, maps, channels or globals, directly or through a callee",
	Run:  func(p *Pass) { runRetain(p, p.Module.facts.event) },
}

// JobRetain flags code that stores arena-owned *workload.Job handles where
// they can outlive the run that allocated them. Jobs are block-allocated
// from a per-run workload.Arena; at the end of the run the arena is reset
// and recycled, so a retained handle silently aliases a different
// replication's job. Results and summaries must copy the scalar fields
// they need instead of keeping the handle.
//
// Flagged shapes, everywhere outside internal/workload:
//
//   - package-level variables whose type contains workload.Job
//   - channel types whose element type contains workload.Job: a channel
//     hands the job to another goroutine, which is never inside the
//     sending run's scope
//   - passing a job to a module function that stores it in a global or
//     sends it over a channel, directly or through further forwarding
//
// Struct fields and elements are deliberately NOT flagged: queues,
// policies and the simulation itself legitimately hold jobs for the
// duration of the run, and that run-scoped state dies with the run.
var JobRetain = &Analyzer{
	Name: "jobretain",
	Doc:  "no storing arena-owned workload.Job handles in globals or channels, directly or through a callee",
	Run:  func(p *Pass) { runRetain(p, p.Module.facts.job) },
}

const (
	eventRetainAdvice = "pooled handles go stale once the event fires or is cancelled; act on the handle immediately or store (time, payload) instead"
	jobRetainAdvice   = "arena-owned jobs are recycled when their run resets the arena; copy the fields you need instead of retaining the handle"
)

// eventSpec configures the retain checks and the escape engine for pooled
// sim.Event handles: any persistent store is a sink, and spreading a
// slice of handles retains its contents.
func eventSpec(mod *Module) *handleSpec {
	check := newContainsChecker(mod.Path+"/internal/sim", "Event")
	return &handleSpec{
		rule:       EventRetain.Name,
		what:       "a pooled sim.Event handle",
		advice:     eventRetainAdvice,
		owner:      "internal/sim",
		fields:     true,
		elements:   true,
		channels:   true,
		globals:    true,
		spreadSink: true,
		track:      check.contains,
	}
}

// jobSpec configures the retain checks and the escape engine for
// arena-owned workload.Job handles. Fields and elements are legitimate
// (run-scoped queues and registries die with the run); the hazards are
// state that survives the run — globals and cross-goroutine channels.
func jobSpec(mod *Module) *handleSpec {
	check := newContainsChecker(mod.Path+"/internal/workload", "Job")
	return &handleSpec{
		rule:       JobRetain.Name,
		what:       "an arena-owned workload.Job handle",
		advice:     jobRetainAdvice,
		owner:      "internal/workload",
		channels:   true,
		globals:    true,
		spreadSink: true,
		track:      check.contains,
	}
}

// runRetain reports, for one handle family, every declaration and store
// whose type holds a handle in a sink the family's spec enables, and
// every call whose handle-typed argument reaches an escaping parameter.
func runRetain(p *Pass, ef *escapeFacts) {
	spec := ef.spec
	if p.Pkg.Rel == spec.owner {
		return
	}
	info := p.Pkg.Info
	holds := func(t types.Type) bool { return t != nil && spec.track(t) }
	if spec.globals {
		scope := p.Pkg.Types.Scope()
		for _, name := range scope.Names() {
			if v, ok := scope.Lookup(name).(*types.Var); ok && holds(v.Type()) {
				p.Reportf(v.Pos(), "package-level variable %s retains %s; %s", name, spec.what, spec.advice)
			}
		}
	}
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				if !spec.fields {
					return true
				}
				for _, field := range n.Fields.List {
					if holds(info.TypeOf(field.Type)) {
						p.Reportf(field.Pos(), "struct field retains %s; %s", spec.what, spec.advice)
					}
				}
			case *ast.ChanType:
				if ch, ok := info.TypeOf(n).(*types.Chan); ok && spec.channels && holds(ch.Elem()) {
					p.Reportf(n.Pos(), "channel carries %s out of its scope; %s", spec.what, spec.advice)
				}
			case *ast.AssignStmt:
				if !spec.elements {
					return true
				}
				for _, lhs := range n.Lhs {
					if ix, ok := lhs.(*ast.IndexExpr); ok && holds(info.TypeOf(ix)) {
						p.Reportf(ix.Pos(), "element assignment retains %s; %s", spec.what, spec.advice)
					}
				}
			case *ast.CompositeLit:
				if !spec.elements {
					return true
				}
				var elem, key types.Type
				switch u := info.TypeOf(n).Underlying().(type) {
				case *types.Slice:
					elem = u.Elem()
				case *types.Array:
					elem = u.Elem()
				case *types.Map:
					elem, key = u.Elem(), u.Key()
				}
				if holds(elem) || holds(key) {
					p.Reportf(n.Pos(), "composite literal retains %s; %s", spec.what, spec.advice)
				}
			case *ast.CallExpr:
				if fn, ok := n.Fun.(*ast.Ident); ok && fn.Name == "append" {
					if _, isBuiltin := info.ObjectOf(fn).(*types.Builtin); isBuiltin {
						if spec.elements && holds(info.TypeOf(n)) {
							p.Reportf(n.Pos(), "append retains %s in a slice; %s", spec.what, spec.advice)
						}
						return true
					}
				}
				reportEscapingArgs(p, ef, n, func(arg ast.Expr) bool { return holds(info.TypeOf(arg)) })
			}
			return true
		})
	}
}
