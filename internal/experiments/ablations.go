package experiments

import (
	"fmt"
	"strings"

	"coalloc/internal/cluster"
	"coalloc/internal/core"
	"coalloc/internal/plot"
	"coalloc/internal/workload"
)

// The ablation experiments probe design choices the paper fixes: the
// request structure (its companion-paper taxonomy), the Worst Fit
// placement rule, the 1.25 extension factor, and the LS queue re-enable
// order. They extend the reproduction beyond the published figures.

// ReqTypes compares request structures under the GS policy: unordered
// (the paper's subject), ordered (fixed clusters) and flexible (scheduler
// splits freely), plus total requests on the single-cluster reference.
// Expected ordering by maximal utilization: flexible > unordered > ordered.
func ReqTypes(e *Env) (string, error) {
	var b strings.Builder
	b.WriteString("Ablation — request structure (GS policy, limit 16, DAS-s-128)\n\n")
	spec := e.MultiSpec(16, e.Derived.Sizes128)
	// The three typed sweeps and the single-cluster reference curve form
	// one scheduling unit.
	var jobs []curveJob
	for _, rt := range []workload.RequestType{workload.Unordered, workload.Ordered, workload.Flexible} {
		rt := rt
		jobs = append(jobs, curveJob{
			label: rt.String(),
			grid:  e.Utilizations,
			fn: func(u float64) (core.Result, error) {
				return e.pointTyped(CurveSpec{
					Policy:       "GS",
					ClusterSizes: MulticlusterSizes,
					Spec:         spec,
				}, rt, u)
			},
		})
	}
	// Total requests on the reference cluster for context.
	scCS := CurveSpec{
		Label: "total (SC)", Policy: "SC", ClusterSizes: SingleClusterSizes,
		Spec: e.SCSpec(e.Derived.Sizes128),
	}
	jobs = append(jobs, e.curveJobs([]CurveSpec{scCS})...)
	sets, err := e.sweepSet(jobs)
	if err != nil {
		return "", err
	}
	var panel []plot.Series
	for ji, job := range jobs {
		panel = append(panel, e.series(job.label, sets[ji]))
	}
	b.WriteString(plot.Chart("", "gross utilization", "mean response time (s)", panel, 64, 16))
	b.WriteString(rankSummary(panel))
	b.WriteString("\n(expected: flexible requests fit best, ordered requests worst —\nplacement freedom is worth real utilization.)\n")
	if err := e.SaveCSV("reqtypes", panel); err != nil {
		return "", err
	}
	return b.String(), nil
}

// pointTyped is Point with a request type. Only unordered requests draw
// the shared workload trace; the other types build their own jobs.
func (e *Env) pointTyped(cs CurveSpec, rt workload.RequestType, util float64) (core.Result, error) {
	cfg := e.pointConfig(cs, util)
	cfg.RequestType = rt
	if rt != workload.Unordered {
		cfg.TraceProvider = nil
	}
	return e.runPoint(cfg)
}

// FitRules compares Worst Fit (the paper's rule) with First Fit and Best
// Fit placement for the GS policy.
func FitRules(e *Env) (string, error) {
	var b strings.Builder
	b.WriteString("Ablation — placement rule (GS policy, limit 16, DAS-s-128)\n\n")
	spec := e.MultiSpec(16, e.Derived.Sizes128)
	var specs []CurveSpec
	for _, fit := range []cluster.Fit{cluster.WorstFit, cluster.FirstFit, cluster.BestFit} {
		specs = append(specs, CurveSpec{
			Label:        fit.String(),
			Policy:       "GS",
			ClusterSizes: MulticlusterSizes,
			Spec:         spec,
			Fit:          fit,
		})
	}
	panel, err := e.Curves(specs)
	if err != nil {
		return "", err
	}
	b.WriteString(plot.Chart("", "gross utilization", "mean response time (s)", panel, 64, 16))
	b.WriteString(rankSummary(panel))
	b.WriteString("\n(the paper fixes Worst Fit; WF spreads load and dominates BF/FF here.)\n")
	if err := e.SaveCSV("fits", panel); err != nil {
		return "", err
	}
	return b.String(), nil
}

// ExtSweep sweeps the wide-area extension factor and reports the LS
// policy's maximal gross and net utilization next to the SC reference —
// the quantitative basis for the paper's "viable while the extension
// factor is 1.25" conclusion.
func ExtSweep(e *Env) (string, error) {
	var b strings.Builder
	b.WriteString("Ablation — wide-area extension factor (LS, limit 16, constant backlog)\n\n")
	scRes, err := core.RunBacklog(core.BacklogConfig{
		ClusterSizes: SingleClusterSizes,
		Spec:         e.SCSpec(e.Derived.Sizes128),
		Policy:       "SC",
		WarmupTime:   e.BacklogWarmup,
		MeasureTime:  e.BacklogMeasure,
		Seed:         e.Seed,
	})
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "SC reference maximal utilization: %.3f\n\n", scRes.MaxGrossUtilization)
	rows := [][]string{{"ext", "LS max gross", "LS max net", "net - SC"}}
	for _, ext := range []float64{1.00, 1.10, 1.20, 1.25, 1.30, 1.40, 1.50} {
		spec := e.MultiSpec(16, e.Derived.Sizes128)
		spec.ExtensionFactor = ext
		res, err := core.RunBacklog(core.BacklogConfig{
			ClusterSizes: MulticlusterSizes,
			Spec:         spec,
			Policy:       "LS",
			WarmupTime:   e.BacklogWarmup,
			MeasureTime:  e.BacklogMeasure,
			Seed:         e.Seed,
		})
		if err != nil {
			return "", err
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", ext),
			fmt.Sprintf("%.3f", res.MaxGrossUtilization),
			fmt.Sprintf("%.3f", res.MaxNetUtilization),
			fmt.Sprintf("%+.3f", res.MaxNetUtilization-scRes.MaxGrossUtilization),
		})
	}
	b.WriteString(plot.Table(rows))
	b.WriteString("\n(gross utilization barely moves; the net — computational — share decays\nroughly linearly in the extension factor.)\n")
	return b.String(), nil
}

// Backfill compares plain FCFS scheduling with EASY backfilling, in the
// multicluster (GS vs GS-EASY vs LS) and on the single-cluster reference
// (SC vs SC-EASY). The paper attributes LS's advantage to "a form of
// backfilling with a window equal to the number of clusters"; EASY removes
// the window limit and shows how much head-of-line blocking really costs.
func Backfill(e *Env) (string, error) {
	var b strings.Builder
	b.WriteString("Ablation — EASY backfilling (limit 16, DAS-s-128, balanced queues)\n\n")
	spec := e.MultiSpec(16, e.Derived.Sizes128)
	scSpec := e.SCSpec(e.Derived.Sizes128)
	curves := []CurveSpec{
		{Label: "GS", Policy: "GS", ClusterSizes: MulticlusterSizes, Spec: spec},
		{Label: "GS-CONS", Policy: "GS-CONS", ClusterSizes: MulticlusterSizes, Spec: spec},
		{Label: "GS-EASY", Policy: "GS-EASY", ClusterSizes: MulticlusterSizes, Spec: spec},
		{Label: "LS", Policy: "LS", ClusterSizes: MulticlusterSizes, Spec: spec},
		{Label: "SC", Policy: "SC", ClusterSizes: SingleClusterSizes, Spec: scSpec},
		{Label: "SC-EASY", Policy: "SC-EASY", ClusterSizes: SingleClusterSizes, Spec: scSpec},
	}
	panel, err := e.Curves(curves)
	if err != nil {
		return "", err
	}
	b.WriteString(plot.Chart("", "gross utilization", "mean response time (s)", panel, 64, 16))
	b.WriteString(rankSummary(panel))
	b.WriteString("\n(EASY dominates its FCFS counterpart; the backfilled single cluster is\nthe strongest system of all — co-allocation's fragmentation costs real\nutilization once head-of-line blocking is gone. Reservations here use\nexact runtimes, so this is an upper bound on EASY's benefit.)\n")
	if err := e.SaveCSV("backfill", panel); err != nil {
		return "", err
	}
	return b.String(), nil
}

// SizeClasses breaks the mean response time down by total job size at one
// operating point per policy — the quantitative view behind the paper's
// Section 3.2 observation that "a very small percentage of very large jobs
// can significantly worsen the performance": under FCFS, the near-system-
// size jobs wait for the machine to drain and everything queued behind
// them pays too.
func SizeClasses(e *Env) (string, error) {
	var b strings.Builder
	const util = 0.55
	fmt.Fprintf(&b, "Ablation — response time by job-size class (limit 16, gross util %.2f)\n\n", util)
	header := []string{"policy"}
	for i := range core.SizeClassBounds {
		header = append(header, core.SizeClassLabel(i))
	}
	rows := [][]string{header}
	for _, cs := range e.standardCurves(16, nil) {
		res, err := e.Point(cs, util)
		if err != nil {
			return "", err
		}
		row := []string{cs.Label}
		for _, v := range res.ResponseBySizeClass {
			row = append(row, fmtResp(v))
		}
		rows = append(rows, row)
	}
	b.WriteString(plot.Table(rows))
	b.WriteString("\n(mean response time in seconds per total-size class; the 65-128 class\ncarries the paper's 'very large jobs'. SC serves them only by draining\nthe whole machine; LS postpones them behind its other queues instead.)\n")
	return b.String(), nil
}

// Discipline compares queue service orders under the global scheduler:
// FCFS (the paper's order), shortest-processing-first, and EASY
// backfilling — separating how much of the FCFS gap is service order and
// how much is packing.
func Discipline(e *Env) (string, error) {
	var b strings.Builder
	b.WriteString("Ablation — queue discipline (GS, limit 16, DAS-s-128)\n\n")
	spec := e.MultiSpec(16, e.Derived.Sizes128)
	var specs []CurveSpec
	for _, p := range []struct{ label, policy string }{
		{"FCFS", "GS"},
		{"SPF", "GS-SPF"},
		{"EASY", "GS-EASY"},
	} {
		specs = append(specs, CurveSpec{
			Label:        p.label,
			Policy:       p.policy,
			ClusterSizes: MulticlusterSizes,
			Spec:         spec,
		})
	}
	panel, err := e.Curves(specs)
	if err != nil {
		return "", err
	}
	b.WriteString(plot.Chart("", "gross utilization", "mean response time (s)", panel, 64, 16))
	b.WriteString(rankSummary(panel))
	b.WriteString("\n(SPF cuts the mean by serving short jobs first but still head-blocks on\nthe shortest non-fitting job; EASY fixes the blocking itself and wins.\nSPF is unfair to long jobs — mean response hides their starvation.)\n")
	if err := e.SaveCSV("discipline", panel); err != nil {
		return "", err
	}
	return b.String(), nil
}

// Reenable compares the paper's disable-order queue re-enabling in LS with
// a fixed index order — a design-choice check: the paper's rule exists for
// fairness, and its performance impact should be small.
func Reenable(e *Env) (string, error) {
	var b strings.Builder
	b.WriteString("Ablation — LS queue re-enable order (limit 16, unbalanced queues)\n\n")
	spec := e.MultiSpec(16, e.Derived.Sizes128)
	weights := core.Unbalanced(len(MulticlusterSizes))
	var specs []CurveSpec
	for _, p := range []struct{ label, policy string }{
		{"disable order (paper)", "LS"},
		{"fixed order", "LS-sorted"},
	} {
		specs = append(specs, CurveSpec{
			Label:        p.label,
			Policy:       p.policy,
			ClusterSizes: MulticlusterSizes,
			Spec:         spec,
			QueueWeights: weights,
		})
	}
	panel, err := e.Curves(specs)
	if err != nil {
		return "", err
	}
	b.WriteString(plot.Chart("", "gross utilization", "mean response time (s)", panel, 64, 14))
	b.WriteString(rankSummary(panel))
	b.WriteString("\n(at low loads the orders coincide; near saturation with unbalanced\nrouting the paper's disable-order rotation clearly outperforms a fixed\norder, which keeps handing the first start of every round to the same\noverloaded queue — the rule earns its keep.)\n")
	return b.String(), nil
}
