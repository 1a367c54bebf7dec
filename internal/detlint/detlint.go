// Package detlint is a small static-analysis framework that enforces the
// simulator's determinism invariants.
//
// The paper's results rest on bit-reproducible trace-driven simulation:
// parallel replications must be byte-identical to the serial loop. That
// invariant used to be enforced only by convention; detlint turns the
// hazards that break it into machine-checked rules that run on every
// `make verify` (see cmd/mclint). Pooled memory (event handles, arena
// jobs, pass scratch) is checked by measurement instead: the kernel's
// generation-checked handles, the same-seed matrix and the
// poisoned-scratch differential (DESIGN.md §14).
//
// The framework is deliberately built on the standard library alone —
// go/ast, go/parser, go/token and go/types, with stdlib dependencies
// resolved by the go/importer "source" importer — so the module keeps its
// zero-dependency property. It never runs the go toolchain: every rule
// works from the parsed and type-checked source alone.
//
// # Rules
//
// Five analyzers ship with the framework (see All), one per hazard.
// A wall-clock read can be laundered through a helper in a file the
// direct check does not cover, so nowallclock reports both the direct use
// and, through a whole-module call graph over go/types (see callgraph.go
// and DESIGN.md §14), the call site that reaches it:
//
//   - nowallclock: no wall-clock time (time.Now, time.Since, time.Sleep,
//     ...) in deterministic packages, and no call there to a module
//     function that transitively reaches it; simulations read
//     sim.Engine.Now.
//   - noglobalrand: no math/rand or math/rand/v2 import anywhere in
//     non-test code; all randomness flows through internal/rng seeded
//     streams. A helper that draws from math/rand imports it, so the
//     module-wide import check already reports every laundering path.
//   - nomaprange: no ranging over maps in deterministic packages unless
//     the loop only collects the keys into a slice that is sorted before
//     use, or the site carries a suppression.
//   - closecheck: a statement-level Close() or Flush() call whose error
//     result is discarded; on buffered writers the Close error is the
//     write error.
//
// Finally, stalesuppress reports //detlint:ignore directives that
// suppress nothing: a dead suppression hides the next real finding on
// its line and must be deleted. stalesuppress findings cannot themselves
// be suppressed.
//
// # Suppressions
//
// A finding can be silenced with a directive comment on the same line or
// on the line directly above it:
//
//	//detlint:ignore <rule> <reason>
//
// The reason is mandatory: a suppression documents *why* the invariant
// holds at that site. Malformed directives (missing reason, unknown rule)
// are themselves reported under the pseudo-rule "detlint".
package detlint

import (
	"fmt"
	"go/token"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Analyzer is one lint rule: a stable identifier, a one-line description
// (shown by `mclint -help`), and a function applied to each loaded
// package. Run builds the whole-module call graph and wall-clock taint
// before any analyzer's Run executes.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All returns the full rule set in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		NoWallClock, NoGlobalRand, NoMapRange, CloseCheck, StaleSuppress,
	}
}

// StaleSuppress reports //detlint:ignore directives that matched no
// finding. The detection itself happens in Run after suppression
// filtering — every other analyzer has reported by then — so this
// Analyzer's Run is empty; the entry exists to name the rule, document
// it in the catalog, and let Config.Analyzers turn it off.
var StaleSuppress = &Analyzer{
	Name: "stalesuppress",
	Doc:  "no //detlint:ignore directives that suppress nothing; delete dead suppressions",
	Run:  func(*Pass) {},
}

// DeterministicPackages lists the module-relative import paths whose code
// must stay bit-reproducible across runs and across serial/parallel
// execution. nowallclock and nomaprange apply only inside this set; the
// other rules apply module-wide.
var DeterministicPackages = []string{
	"internal/analysis",
	"internal/cluster",
	"internal/core",
	"internal/dastrace",
	"internal/dectrace",
	"internal/dist",
	"internal/experiments",
	"internal/faults",
	"internal/obs",
	"internal/plot",
	"internal/policies",
	"internal/queues",
	"internal/rng",
	"internal/sim",
	"internal/stats",
	"internal/wmodel",
	"internal/workload",
	"internal/workpool",
}

// Finding is one rule violation at one source position.
type Finding struct {
	Rule string
	Pos  token.Position
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Rule, f.Msg)
}

// Pass hands one loaded package to one analyzer and collects its reports.
// Analyzer Runs for different packages execute concurrently; a Pass and
// its findings slice are confined to one goroutine, and the Module
// (including its call graph and taint) is immutable during the analysis
// phase.
type Pass struct {
	Analyzer *Analyzer
	Module   *Module
	Pkg      *Package

	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Rule: p.Analyzer.Name,
		Pos:  p.Module.Fset.Position(pos),
		Msg:  fmt.Sprintf(format, args...),
	})
}

// Deterministic reports whether the package under analysis is in the
// deterministic set (DeterministicPackages, relative to the module root).
func (p *Pass) Deterministic() bool {
	return deterministicRel(p.Pkg.Rel)
}

func deterministicRel(rel string) bool {
	for _, det := range DeterministicPackages {
		if rel == det {
			return true
		}
	}
	return false
}

// Config selects what Run analyzes.
type Config struct {
	// Dir is the base directory: any directory inside the target module.
	// Relative patterns are resolved against it.
	Dir string
	// Patterns name the packages to analyze: ".", a directory path, or a
	// recursive pattern like "./...". Defaults to "./..." when empty.
	Patterns []string
	// Analyzers defaults to All() when nil.
	Analyzers []*Analyzer
}

// Run loads the requested packages, applies the analyzers, filters
// suppressed findings, reports stale suppressions, and returns the
// survivors sorted by position. It returns an error for load failures
// (no module, parse or type errors), not for findings.
//
// Each package is loaded and type-checked exactly once and the result is
// shared by every analyzer; the per-package analyzer runs execute in
// parallel (bounded by GOMAXPROCS) and the merged output is sorted, so
// the findings are deterministic regardless of scheduling.
func Run(cfg Config) ([]Finding, error) {
	if len(cfg.Patterns) == 0 {
		cfg.Patterns = []string{"./..."}
	}
	analyzers := cfg.Analyzers
	if analyzers == nil {
		analyzers = All()
	}
	mod, pkgs, err := load(cfg.Dir, cfg.Patterns)
	if err != nil {
		return nil, err
	}
	sup, bad := collectSuppressions(mod, pkgs, analyzers)
	mod.sup = sup
	// The taint closure honors nowallclock directives at direct reads,
	// so the suppressions must be parsed first.
	mod.cg = buildCallGraph(mod)
	mod.clock = buildTaint(mod.cg)

	// Per-package analysis, in parallel. Findings are collected into a
	// per-package slice and merged in package order; the global sort
	// below makes the output independent of goroutine scheduling either
	// way.
	perPkg := make([][]Finding, len(pkgs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, pkg := range pkgs {
		wg.Add(1)
		go func(i int, pkg *Package) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var local []Finding
			for _, a := range analyzers {
				a.Run(&Pass{Analyzer: a, Module: mod, Pkg: pkg, findings: &local})
			}
			perPkg[i] = local
		}(i, pkg)
	}
	wg.Wait()
	var findings []Finding
	for _, local := range perPkg {
		findings = append(findings, local...)
	}
	findings = append(findings, bad...)

	// Filter suppressed findings, crediting every directive that covers
	// a match so the staleness pass below sees which directives earned
	// their keep.
	kept := findings[:0]
	for _, f := range findings {
		if ds := sup.covering(f); len(ds) > 0 {
			for _, d := range ds {
				d.used = true
			}
			continue
		}
		kept = append(kept, f)
	}
	findings = kept

	// Stale-suppression detection: a directive for an active rule that
	// matched nothing suppresses nothing — and would silently swallow
	// the next real finding on its line. Directives for inactive rules
	// are dormant, not stale.
	active := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		active[a.Name] = true
	}
	if active[StaleSuppress.Name] {
		for _, d := range sup.all {
			if d.used || !active[d.rule] {
				continue
			}
			findings = append(findings, Finding{
				Rule: StaleSuppress.Name,
				Pos:  d.pos,
				Msg: fmt.Sprintf("//detlint:ignore %s suppresses no finding; delete the dead directive",
					d.rule),
			})
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
	// Drop exact duplicates (two checks of one analyzer can hit one site).
	dedup := findings[:0]
	for i, f := range findings {
		if i > 0 && f == findings[i-1] {
			continue
		}
		dedup = append(dedup, f)
	}
	return dedup, nil
}

// ignorePrefix introduces one //detlint:ignore comment.
const ignorePrefix = "detlint:ignore"

// directive is one parsed //detlint:ignore comment. used is set during
// suppression filtering when a finding the directive covers was silenced,
// and by the taint closure when it honors a suppressed wall-clock read.
type directive struct {
	pos  token.Position
	rule string
	used bool
}

// suppressions indexes directives by the (file, line, rule) triples they
// cover. A directive on line L covers findings of its rule on L (the
// trailing-comment style) and on L+1 (the comment-above style).
type suppressions struct {
	cover map[string]map[int]map[string][]*directive
	all   []*directive
}

func newSuppressions() *suppressions {
	return &suppressions{cover: make(map[string]map[int]map[string][]*directive)}
}

func (s *suppressions) add(d *directive) {
	s.all = append(s.all, d)
	byLine := s.cover[d.pos.Filename]
	if byLine == nil {
		byLine = make(map[int]map[string][]*directive)
		s.cover[d.pos.Filename] = byLine
	}
	for _, l := range [2]int{d.pos.Line, d.pos.Line + 1} {
		rules := byLine[l]
		if rules == nil {
			rules = make(map[string][]*directive)
			byLine[l] = rules
		}
		rules[d.rule] = append(rules[d.rule], d)
	}
}

// covering returns the directives that silence f. stalesuppress findings
// are never suppressible: a dead directive must be deleted, not excused.
func (s *suppressions) covering(f Finding) []*directive {
	if f.Rule == StaleSuppress.Name {
		return nil
	}
	return s.cover[f.Pos.Filename][f.Pos.Line][f.Rule]
}

// sanctions reports whether a directive for rule covers the given
// position, marking matching directives used. The taint closure calls it
// at direct wall-clock reads: a suppressed read is documented-safe, so it
// must not taint the functions that reach it. Only safe while Run builds
// the taint, before the parallel analysis phase.
func (s *suppressions) sanctions(pos token.Position, rule string) bool {
	if s == nil {
		return false
	}
	ds := s.cover[pos.Filename][pos.Line][rule]
	for _, d := range ds {
		d.used = true
	}
	return len(ds) > 0
}

// collectSuppressions scans every comment of every loaded file for
// //detlint:ignore directives. Malformed directives — missing rule,
// missing reason, a rule no analyzer declares, or an attempt to suppress
// stalesuppress — are returned as findings under the pseudo-rule
// "detlint".
func collectSuppressions(mod *Module, pkgs []*Package, analyzers []*Analyzer) (*suppressions, []Finding) {
	// Validate rule names against the full catalog, not just the active
	// analyzers: a directive for an inactive rule is dormant, not wrong.
	catalog := All()
	known := make(map[string]bool, len(catalog)+len(analyzers))
	for _, a := range catalog {
		known[a.Name] = true
	}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	sup := newSuppressions()
	var bad []Finding
	report := func(pos token.Position, format string, args ...any) {
		bad = append(bad, Finding{Rule: "detlint", Pos: pos, Msg: fmt.Sprintf(format, args...)})
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					if !strings.HasPrefix(text, ignorePrefix) {
						continue
					}
					pos := mod.Fset.Position(c.Pos())
					fields := strings.Fields(strings.TrimPrefix(text, ignorePrefix))
					if len(fields) == 0 {
						report(pos, "detlint:ignore without a rule name; use //detlint:ignore <rule> <reason>")
						continue
					}
					rule := fields[0]
					if !known[rule] {
						report(pos, "detlint:ignore names unknown rule %q (have %s)", rule, ruleNames(known))
						continue
					}
					if rule == StaleSuppress.Name {
						report(pos, "stalesuppress findings cannot be suppressed; delete the dead directive instead")
						continue
					}
					if len(fields) < 2 {
						report(pos, "detlint:ignore %s without a reason; suppressions must document why the invariant holds", rule)
						continue
					}
					sup.add(&directive{pos: pos, rule: rule})
				}
			}
		}
	}
	return sup, bad
}

func ruleNames(known map[string]bool) string {
	names := make([]string, 0, len(known))
	for n := range known {
		if n == StaleSuppress.Name {
			continue // not suppressible, so not offered
		}
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// quoteImportPath unquotes an import spec path, tolerating bad syntax.
func quoteImportPath(lit string) string {
	path, err := strconv.Unquote(lit)
	if err != nil {
		return lit
	}
	return path
}
