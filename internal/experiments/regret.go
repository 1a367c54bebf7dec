package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"coalloc/internal/dectrace"
	"coalloc/internal/plot"
)

// Regret runs the Fig. 5 grid (all four policies, total-size caps 128 and
// 64, component-size limit 16, balanced queues) with decision tracing
// forced on and reports the counterfactual regret of each policy: the mean
// number of seconds per job that the dispatched placement started later
// than the best unchosen alternative the policy itself considered (see
// DESIGN.md section 17). The per-curve series — mean regret per job versus
// measured gross utilization — land in regret.csv under the data
// directory.
func Regret(e *Env) (string, error) {
	var b strings.Builder
	b.WriteString("Regret — counterfactual start-time regret per job (Fig. 5 grid, limit 16, balanced queues)\n\n")
	specs := e.fig5Specs()

	// Force decision tracing on for this sweep only; every other
	// experiment keeps Decisions nil and stays bit-identical to a build
	// without the dectrace layer. Experiments run one at a time, so the
	// save/restore brackets every point of this sweep and nothing else.
	saved := e.Decisions
	e.Decisions = &dectrace.Options{}
	sets, err := e.CurveSet(specs)
	e.Decisions = saved
	if err != nil {
		return "", err
	}

	type rank struct {
		name string
		// mean regret per measured job over the curve's stable points
		mean float64
		// share of dispatches that paid nonzero regret
		share float64
		// largest single-dispatch regret anywhere on the curve
		max float64
	}
	series := make([]plot.Series, len(specs))
	ranks := make([]rank, len(specs))
	for i := range specs {
		s := plot.Series{Name: specs[i].Label}
		var total float64
		var jobs, decisions, withRegret int
		var worst float64
		for _, res := range sets[i] {
			mean := 0.0
			if res.Jobs > 0 {
				mean = res.RegretTotal / float64(res.Jobs)
			}
			s.Add(res.GrossUtilization, mean)
			if res.RegretMax > worst {
				worst = res.RegretMax
			}
			if res.Saturated {
				// The terminator's regret is horizon-dependent, exactly
				// like its response time: flag it and keep it out of the
				// cross-grid means below.
				s.Saturated = true
				break
			}
			total += res.RegretTotal
			jobs += res.Jobs
			decisions += res.Decisions
			withRegret += res.RegretDecisions
			if res.MeanResponse > e.ResponseCap {
				break
			}
		}
		series[i] = s
		r := rank{name: specs[i].Label, mean: math.NaN(), share: math.NaN(), max: worst}
		if jobs > 0 {
			r.mean = total / float64(jobs)
		}
		if decisions > 0 {
			r.share = float64(withRegret) / float64(decisions)
		}
		ranks[i] = r
	}

	b.WriteString(plot.Chart("", "gross utilization", "mean regret per job (s)", series, 64, 20))
	b.WriteString("\npolicy        mean regret/job  regret share  max regret\n")
	ordered := append([]rank(nil), ranks...)
	sort.SliceStable(ordered, func(a, z int) bool {
		// NaN (no stable points) sorts last; otherwise ascending mean.
		am, zm := ordered[a].mean, ordered[z].mean
		if math.IsNaN(zm) {
			return !math.IsNaN(am)
		}
		if math.IsNaN(am) {
			return false
		}
		return am < zm
	})
	for _, r := range ordered {
		fmt.Fprintf(&b, "%-12s  %15s  %12s  %10.0f\n",
			r.name, fmtF(r.mean), fmtF(r.share), r.max)
	}
	b.WriteString("\nmean regret per job over stable points: ")
	for i, r := range ordered {
		if i > 0 {
			b.WriteString(", ")
		}
		if math.IsNaN(r.mean) {
			fmt.Fprintf(&b, "%s never stable", r.name)
		} else {
			fmt.Fprintf(&b, "%s %.1f", r.name, r.mean)
		}
	}
	b.WriteString("\n\n(regret counts only alternatives the policy itself evaluated against\nthe same availability state. Worst, First and Best Fit agree on\nwhether every request fits, so for these four policies the only\nearlier start is another cluster for a job its local queue confines\n(LS and LP): regret isolates the cost of that restriction from the\ncost of the queueing discipline.)\n")
	if err := e.SaveCSV("regret", series); err != nil {
		return "", err
	}
	return b.String(), nil
}
