package detlint

import "go/types"

// moduleFacts bundles the interprocedural dataflow the rules share: the
// whole-module call graph, the wall-clock taint closure, and the escape
// summaries.
// Run builds it once, single-threaded, before the parallel per-package
// analysis phase; afterwards it is immutable.
type moduleFacts struct {
	cg      *callGraph
	clock   map[*types.Func]*taintFact // functions that reach the wall clock
	event   *escapeFacts
	job     *escapeFacts
	scratch *scratchFacts
}

// buildFacts constructs the call graph and all dataflow summaries. The
// fact builders honor existing //detlint:ignore directives at store and
// source sites (crediting them for the staleness pass), so m.sup must be
// populated first.
func (m *Module) buildFacts() {
	cg := buildCallGraph(m)
	m.facts = &moduleFacts{
		cg:      cg,
		clock:   buildTaint(cg),
		event:   buildEscapeFacts(cg, eventSpec(m)),
		job:     buildEscapeFacts(cg, jobSpec(m)),
		scratch: buildScratchFacts(cg),
	}
}
