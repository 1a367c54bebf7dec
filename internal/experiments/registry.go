package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Runner reproduces one paper artifact and returns its rendered report.
type Runner func(*Env) (string, error)

// registry maps experiment ids to runners, plus the metadata the CLIs use
// to validate flag combinations: sims marks experiments that run
// open-system simulations (the runs decision tracing applies to), cons
// marks experiments that run conservative-backfilling policies (the runs
// -lookahead applies to).
var registry = map[string]struct {
	run  Runner
	desc string
	sims bool
	cons bool
}{
	"table1":   {run: Table1, desc: "fractions of jobs with power-of-two sizes"},
	"table2":   {run: Table2, desc: "component-count fractions per size limit"},
	"table3":   {run: Table3, desc: "maximal gross/net utilization under constant backlog"},
	"fig1":     {run: Fig1, desc: "density of job-request sizes"},
	"fig2":     {run: Fig2, desc: "density of service times"},
	"fig3":     {run: Fig3, desc: "response time vs utilization, all policies and limits", sims: true},
	"fig4":     {run: Fig4, desc: "response-time breakdown near LP saturation", sims: true},
	"fig5":     {run: Fig5, desc: "total-job-size cap: DAS-s-64 vs DAS-s-128", sims: true},
	"fig6":     {run: Fig6, desc: "sensitivity to the component-size limit", sims: true},
	"fig7":     {run: Fig7, desc: "gross vs net utilization curves", sims: true},
	"ratio":    {run: Ratio, desc: "analytic gross/net utilization ratios"},
	"workload": {run: WorkloadSummary, desc: "derived distribution summary"},
	// Ablations beyond the paper (see DESIGN.md section 6).
	"reqtypes":    {run: ReqTypes, desc: "ablation: unordered vs ordered vs flexible vs total requests", sims: true},
	"fits":        {run: FitRules, desc: "ablation: Worst Fit vs First Fit vs Best Fit placement", sims: true},
	"extsweep":    {run: ExtSweep, desc: "ablation: wide-area extension factor sweep", sims: true},
	"reenable":    {run: Reenable, desc: "ablation: LS queue re-enable order", sims: true},
	"backfill":    {run: Backfill, desc: "ablation: EASY/conservative backfilling vs plain FCFS", sims: true, cons: true},
	"discipline":  {run: Discipline, desc: "ablation: FCFS vs SPF vs EASY queue discipline", sims: true},
	"sizeclasses": {run: SizeClasses, desc: "ablation: response time by total-job-size class", sims: true},
	"faults":      {run: Degradation, desc: "extension: response-time degradation under processor failures", sims: true, cons: true},
	"checkpoint":  {run: Checkpoint, desc: "extension: checkpoint/restart work-loss vs checkpoint interval", sims: true, cons: true},
	"regret":      {run: Regret, desc: "extension: counterfactual start-time regret per policy", sims: true},
}

// Names returns the experiment ids in a stable order.
func Names() []string {
	var names []string
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Describe returns the one-line description of an experiment.
func Describe(name string) string { return registry[name].desc }

// Known reports whether name is a registered experiment id.
func Known(name string) bool {
	_, ok := registry[name]
	return ok
}

// UsesSimulations reports whether the named experiment runs open-system
// simulations — the runs decision tracing (-decisions) applies to.
// Unknown names report false.
func UsesSimulations(name string) bool { return registry[name].sims }

// UsesConservative reports whether the named experiment runs
// conservative-backfilling policies — the runs -lookahead applies to.
// Unknown names report false.
func UsesConservative(name string) bool { return registry[name].cons }

// Run executes one experiment by id.
func Run(name string, e *Env) (string, error) {
	r, ok := registry[name]
	if !ok {
		return "", fmt.Errorf("experiments: unknown experiment %q (have %s)",
			name, strings.Join(Names(), ", "))
	}
	// A NaN precision would silently run the fixed replication count, and
	// a point keyed by it would never equal itself.
	if math.IsNaN(e.Precision) || math.IsInf(e.Precision, 0) {
		return "", fmt.Errorf("experiments: Params.Precision %g must be finite (positive for the stopping rule, 0 for the fixed replication count)", e.Precision)
	}
	return r.run(e)
}

// All runs every experiment in a deterministic order and concatenates the
// reports.
func All(e *Env) (string, error) {
	order := []string{
		"workload", "table1", "fig1", "fig2", "table2", "ratio",
		"fig3", "fig4", "fig5", "fig6", "fig7", "table3",
		"reqtypes", "fits", "extsweep", "reenable", "backfill", "discipline",
		"sizeclasses", "faults", "checkpoint", "regret",
	}
	var b strings.Builder
	for _, name := range order {
		out, err := Run(name, e)
		if err != nil {
			return "", fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(&b, "================ %s ================\n\n%s\n", name, out)
	}
	return b.String(), nil
}
