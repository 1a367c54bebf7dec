package experiments

import (
	"fmt"
	"math"
	"strings"

	"coalloc/internal/core"
	"coalloc/internal/dastrace"
	"coalloc/internal/dist"
	"coalloc/internal/plot"
)

// Fig1 reproduces Fig. 1: the density of job-request sizes in the DAS log,
// split into powers of two and other sizes.
func Fig1(e *Env) (string, error) {
	recs := dastrace.Default()
	sizes, counts := dastrace.SizeDensity(recs)
	var b strings.Builder
	b.WriteString("Fig. 1 — density of job-request sizes (synthetic DAS log, 128-proc cluster)\n\n")
	var maxCount int64
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	pow := map[int]bool{1: true, 2: true, 4: true, 8: true, 16: true, 32: true, 64: true, 128: true}
	for i, s := range sizes {
		bar := int(float64(counts[i]) / float64(maxCount) * 60)
		tag := " "
		if pow[s] {
			tag = "P" // power of two
		}
		fmt.Fprintf(&b, "%4d %s %7d %s\n", s, tag, counts[i], strings.Repeat("#", bar))
	}
	b.WriteString("\n(P marks powers of two; the paper's log shows the same preference for\nsmall sizes and powers of two, with a dominant spike at 64.)\n")
	series := []plot.Series{{Name: "jobs"}}
	for i, s := range sizes {
		series[0].Add(float64(s), float64(counts[i]))
	}
	if err := e.SaveCSV("fig1", series); err != nil {
		return "", err
	}
	return b.String(), nil
}

// Fig2 reproduces Fig. 2: the density of service times on the DAS, shown
// for the cut log (DAS-t-900).
func Fig2(e *Env) (string, error) {
	recs := dastrace.Default()
	h := dastrace.ServiceHistogram(recs, 900, 30)
	ls := dastrace.Analyze(recs)
	var b strings.Builder
	b.WriteString("Fig. 2 — density of service times (synthetic DAS log, cut at 900 s)\n\n")
	b.WriteString(h.Render(60))
	fmt.Fprintf(&b, "\nfull log: mean service %.1f s, CV %.2f; %.1f%% of jobs below the 900 s\nworking-hours kill limit (the mass at 900 s is the killed jobs).\n",
		ls.MeanService, ls.ServiceCV, 100*ls.FracServiceUnderKill)
	series := []plot.Series{{Name: "jobs"}}
	for i := 0; i < h.Bins(); i++ {
		lo, hi := h.BinRange(i)
		series[0].Add((lo+hi)/2, float64(h.Count(i)))
	}
	if err := e.SaveCSV("fig2", series); err != nil {
		return "", err
	}
	return b.String(), nil
}

// Fig3 reproduces Fig. 3: mean response time versus utilization for the
// four policies, for component-size limits 16, 24 and 32, with balanced
// (top row) and unbalanced (bottom row) local queues.
func Fig3(e *Env) (string, error) {
	var b strings.Builder
	b.WriteString("Fig. 3 — response time vs gross utilization, all policies\n")
	// Gather the specs of all six panels first: batching the 24 curves
	// into one Curves call lets the scheduler interleave every point of
	// the figure instead of running panel after panel.
	type panelSpec struct {
		weights []float64
		limit   int
	}
	var panels []panelSpec
	var specs []CurveSpec
	for _, weights := range [][]float64{nil, core.Unbalanced(len(MulticlusterSizes))} {
		for _, limit := range Limits {
			panels = append(panels, panelSpec{weights, limit})
			specs = append(specs, e.standardCurves(limit, weights)...)
		}
	}
	series, err := e.Curves(specs)
	if err != nil {
		return "", err
	}
	perPanel := len(specs) / len(panels)
	var all []plot.Series
	for pi, p := range panels {
		panel := series[pi*perPanel : (pi+1)*perPanel]
		for _, s := range panel {
			tagged := s
			tagged.Name = fmt.Sprintf("%s limit=%d %s", s.Name, p.limit, balanceName(p.weights))
			all = append(all, tagged)
		}
		title := fmt.Sprintf("\n--- component-size limit %d, %s local queues ---",
			p.limit, balanceName(p.weights))
		b.WriteString(title + "\n")
		b.WriteString(plot.Chart("", "gross utilization", "mean response time (s)", panel, 64, 18))
		b.WriteString(rankSummary(panel))
	}
	if err := e.SaveCSV("fig3", all); err != nil {
		return "", err
	}
	return b.String(), nil
}

// rankSummary prints the maximal utilization each curve reached before
// saturating — the right-to-left performance ordering of the paper's
// legends. A saturation terminator never ranks as stable, no matter what
// partial response it measured: its values depend on how far the
// diverging run was allowed to proceed (the saturation cutoff stops it
// early), and "max stable" must be horizon-independent. A curve with no
// stable point at all — its very first grid point was a saturation
// terminator, or every measured response exceeded the plot cap — gets an
// explicit "never stable" entry rather than a fabricated 0.00.
func rankSummary(panel []plot.Series) string {
	var b strings.Builder
	b.WriteString("max stable gross utilization: ")
	for i, s := range panel {
		if i > 0 {
			b.WriteString(", ")
		}
		stable := s.Y
		if s.Saturated && len(stable) > 0 {
			stable = stable[:len(stable)-1]
		}
		last := math.NaN()
		for j, y := range stable {
			if y <= 10000 {
				last = s.X[j]
			}
		}
		if math.IsNaN(last) {
			fmt.Fprintf(&b, "%s never stable", s.Name)
		} else {
			fmt.Fprintf(&b, "%s %.2f", s.Name, last)
		}
	}
	b.WriteString("\n")
	return b.String()
}

// Fig4 reproduces Fig. 4: for each component-size limit, the average
// response times split into local-queue, global-queue and total averages,
// at a utilization close to LP's saturation point, with the gross and net
// utilizations of that operating point.
func Fig4(e *Env) (string, error) {
	var b strings.Builder
	b.WriteString("Fig. 4 — response times near LP's saturation point\n")
	for _, weights := range [][]float64{nil, core.Unbalanced(len(MulticlusterSizes))} {
		for _, limit := range Limits {
			spec := e.MultiSpec(limit, e.Derived.Sizes128)
			lpCurve := CurveSpec{Policy: "LP", ClusterSizes: MulticlusterSizes, Spec: spec, QueueWeights: weights}
			util, err := e.saturationUtil(lpCurve)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "\n--- limit %d, %s queues, gross utilization %.2f ---\n",
				limit, balanceName(weights), util)
			rows := [][]string{{"policy", "local avg", "global avg", "total avg", "gross util", "net util"}}
			for _, cs := range e.standardCurves(limit, weights) {
				res, err := e.Point(cs, util)
				if err != nil {
					return "", err
				}
				rows = append(rows, []string{
					cs.Label,
					fmtResp(res.MeanResponseLocal),
					fmtResp(res.MeanResponseGlobal),
					fmtResp(res.MeanResponse),
					fmtF(res.GrossUtilization),
					fmtF(res.NetUtilization),
				})
			}
			b.WriteString(plot.Table(rows))
		}
	}
	b.WriteString("\n(paper shape: for LP the global-queue average far exceeds the local ones.)\n")
	return b.String(), nil
}

// saturationUtil returns the highest grid utilization at which the given
// configuration is still stable — "chosen so that at least one of the
// policies approaches saturation". The grid points run concurrently.
func (e *Env) saturationUtil(cs CurveSpec) (float64, error) {
	results, err := e.sweep(cs.Label+" (saturation scan)", e.Utilizations, func(u float64) core.Config {
		return e.pointConfig(cs, u)
	})
	if err != nil {
		return 0, err
	}
	last := e.Utilizations[0]
	for i, res := range results {
		if res.Saturated || res.MeanResponse > e.ResponseCap {
			return last, nil
		}
		last = e.Utilizations[i]
	}
	return last, nil
}

// Fig5 reproduces Fig. 5: the effect of limiting the total job size —
// DAS-s-64 versus DAS-s-128 for all four policies at component-size limit
// 16 with balanced local queues (the configuration where LS beat SC).
func Fig5(e *Env) (string, error) {
	var b strings.Builder
	b.WriteString("Fig. 5 — maximal total job size 64 vs 128 (limit 16, balanced queues)\n\n")
	panel, err := e.Curves(e.fig5Specs())
	if err != nil {
		return "", err
	}
	all := append([]plot.Series(nil), panel...)
	b.WriteString(plot.Chart("", "gross utilization", "mean response time (s)", panel, 64, 20))
	b.WriteString(rankSummary(panel))
	b.WriteString("\n(paper shape: every policy improves with the size-64 cap; SC improves most.)\n")
	if err := e.SaveCSV("fig5", all); err != nil {
		return "", err
	}
	return b.String(), nil
}

// fig5Specs is the Fig. 5 grid: SC, GS, LS and LP at component-size limit
// 16 with balanced queues, for the total-size caps 128 and 64. Regret
// runs the same grid.
func (e *Env) fig5Specs() []CurveSpec {
	const limit = 16
	var specs []CurveSpec
	for _, v := range []struct {
		tag   string
		sizes *dist.EmpiricalInt
	}{{"128", e.Derived.Sizes128}, {"64", e.Derived.Sizes64}} {
		spec := e.MultiSpec(limit, v.sizes)
		specs = append(specs,
			CurveSpec{Label: "SC " + v.tag, Policy: "SC", ClusterSizes: SingleClusterSizes, Spec: e.SCSpec(v.sizes)},
			CurveSpec{Label: "GS " + v.tag, Policy: "GS", ClusterSizes: MulticlusterSizes, Spec: spec},
			CurveSpec{Label: "LS " + v.tag, Policy: "LS", ClusterSizes: MulticlusterSizes, Spec: spec},
			CurveSpec{Label: "LP " + v.tag, Policy: "LP", ClusterSizes: MulticlusterSizes, Spec: spec},
		)
	}
	return specs
}

// Fig6 reproduces Fig. 6: per-policy sensitivity to the component-size
// limit for LS, LP and GS; LS and LP in both the balanced and unbalanced
// cases.
func Fig6(e *Env) (string, error) {
	var b strings.Builder
	b.WriteString("Fig. 6 — sensitivity to the job-component-size limit\n")
	var all []plot.Series
	type panelSpec struct {
		policy  string
		weights []float64
	}
	panels := []panelSpec{
		{"LS", nil}, {"LP", nil}, {"GS", nil},
		{"LS", core.Unbalanced(len(MulticlusterSizes))},
		{"LP", core.Unbalanced(len(MulticlusterSizes))},
	}
	var specs []CurveSpec
	for _, p := range panels {
		for _, limit := range Limits {
			specs = append(specs, CurveSpec{
				Label:        fmt.Sprintf("%s %d", p.policy, limit),
				Policy:       p.policy,
				ClusterSizes: MulticlusterSizes,
				Spec:         e.MultiSpec(limit, e.Derived.Sizes128),
				QueueWeights: p.weights,
			})
		}
	}
	series, err := e.Curves(specs)
	if err != nil {
		return "", err
	}
	for pi, p := range panels {
		panel := series[pi*len(Limits) : (pi+1)*len(Limits)]
		for _, s := range panel {
			tagged := s
			tagged.Name = fmt.Sprintf("%s %s", s.Name, balanceName(p.weights))
			all = append(all, tagged)
		}
		fmt.Fprintf(&b, "\n--- %s, %s local queues ---\n", p.policy, balanceName(p.weights))
		b.WriteString(plot.Chart("", "gross utilization", "mean response time (s)", panel, 64, 16))
		b.WriteString(rankSummary(panel))
	}
	b.WriteString("\n(paper shape: LS strongly prefers limit 16; 24 is worst for every policy;\nGS is nearly indifferent between 16 and 32 with a slight edge for 32.)\n")
	if err := e.SaveCSV("fig6", all); err != nil {
		return "", err
	}
	return b.String(), nil
}

// Fig7 reproduces Fig. 7: mean response time as a function of both the
// gross and the net utilization for LS, LP and GS at each component-size
// limit (balanced queues).
func Fig7(e *Env) (string, error) {
	var b strings.Builder
	b.WriteString("Fig. 7 — response time vs gross and net utilization\n")
	var specs []CurveSpec
	var limits []int
	for _, policy := range []string{"LS", "LP", "GS"} {
		for _, limit := range Limits {
			specs = append(specs, CurveSpec{
				Label:        fmt.Sprintf("%s %d", policy, limit),
				Policy:       policy,
				ClusterSizes: MulticlusterSizes,
				Spec:         e.MultiSpec(limit, e.Derived.Sizes128),
			})
			limits = append(limits, limit)
		}
	}
	sets, err := e.CurveSet(specs)
	if err != nil {
		return "", err
	}
	var all []plot.Series
	for si, cs := range specs {
		gross, net := e.netSeries(cs.Label, sets[si])
		all = append(all, gross, net)
		fmt.Fprintf(&b, "\n--- %s, limit %d (analytic gross/net ratio %.4f) ---\n",
			cs.Policy, limits[si], cs.Spec.GrossNetRatio())
		b.WriteString(plot.Chart("", "utilization", "mean response time (s)",
			[]plot.Series{gross, net}, 64, 14))
	}
	b.WriteString("\n(paper shape: the gross-net gap grows as the limit shrinks; largest for LS 16.)\n")
	if err := e.SaveCSV("fig7", all); err != nil {
		return "", err
	}
	return b.String(), nil
}
