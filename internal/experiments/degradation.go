package experiments

import (
	"fmt"
	"strings"

	"coalloc/internal/core"
	"coalloc/internal/faults"
	"coalloc/internal/plot"
)

// The degradation experiment extends the paper's evaluation to unreliable
// processors: each cluster suffers an independent Poisson failure process,
// a failure takes one processor down for an exponential repair time, and a
// failure landing on a fully busy cluster aborts the most recently started
// job there (resubmitted after a capped backoff). The question is graceful
// degradation: how fast does each policy's mean response time grow as the
// failure rate rises, at a load every policy handles comfortably when the
// hardware is reliable?
//
// The sweep uses the DAS-s-64 size distribution deliberately. Under
// DAS-s-128 a full-machine job (total size 128) can only start in a window
// where every processor is simultaneously up and idle; any nonzero failure
// rate makes such windows rare (one processor down anywhere blocks the job),
// and once started the job occupies every cluster, so the next failure
// anywhere kills it and forfeits all its work. The job camps at its FCFS
// queue head for hundreds of thousands of virtual seconds, everything behind
// it queues, and every policy saturates at every nonzero rate — a real
// starvation effect worth knowing about, but one that swamps the scheduler
// comparison this experiment is after. Capping total sizes at half the
// machine keeps the failure response in the regime where the policies
// differ.

// defaultFaultMTTR is the repair time scale when Params.FaultMTTR is zero:
// 15 minutes, the scale of a node reboot.
const defaultFaultMTTR = 900

// faultMTBFGrid is the per-cluster mean-time-between-failures grid, in
// seconds, from reliable hardware (0 = no failures) to a failure every
// ~8 minutes per cluster. Ordered by increasing failure rate so the sweep's
// early-stop ends the curve at the first saturated point.
var faultMTBFGrid = []float64{0, 5000, 2000, 1000, 500}

// Degradation sweeps the failure rate for the GS, LS, LP and backfilling
// policies at a fixed moderate load and reports the response-time
// degradation curve with the fault accounting behind it.
func Degradation(e *Env) (string, error) {
	mttr := e.FaultMTTR
	if mttr == 0 {
		mttr = defaultFaultMTTR
	}
	const util = 0.4
	spec := e.MultiSpec(16, e.Derived.Sizes64)
	var b strings.Builder
	b.WriteString("Extension — response-time degradation under processor failures\n")
	fmt.Fprintf(&b, "(offered gross utilization %.2f, MTTR %.0f s, per-cluster Poisson failures,\nmulticluster %v, limit 16, DAS-s-64)\n\n", util, mttr, MulticlusterSizes)
	fmt.Fprintf(&b, "%-7s %8s %11s %9s %7s %10s %13s %7s\n",
		"policy", "MTBF(s)", "fail/hr/cl", "resp(s)", "kills", "resubmits", "lost(proc-s)", "avail")
	policies := []string{"GS", "LS", "LP", "GS-EASY", "GS-CONS"}
	jobs := make([]curveJob, len(policies))
	for pi, pol := range policies {
		cs := CurveSpec{Label: pol, Policy: pol, ClusterSizes: MulticlusterSizes, Spec: spec}
		jobs[pi] = curveJob{
			label: pol + " degradation",
			grid:  faultMTBFGrid,
			config: func(mtbf float64) core.Config {
				var fs *faults.Spec
				if mtbf > 0 {
					fs = &faults.Spec{
						MTBF:               mtbf,
						MTTR:               mttr,
						RetryBase:          e.FaultRetryBase,
						RetryCap:           e.FaultRetryCap,
						CheckpointInterval: e.FaultCheckpointInterval,
					}
				}
				return e.faultConfig(cs, util, fs)
			},
		}
	}
	sets, err := e.sweepSet(jobs)
	if err != nil {
		return "", err
	}
	var panel []plot.Series
	for pi, pol := range policies {
		results := sets[pi]
		s := plot.Series{Name: pol}
		for i, res := range results {
			mtbf := faultMTBFGrid[i]
			perHour := 0.0
			if mtbf > 0 {
				perHour = 3600 / mtbf
			}
			s.Add(perHour, res.MeanResponse)
			resp := fmtResp(res.MeanResponse)
			if res.Saturated {
				resp += "*"
			}
			fmt.Fprintf(&b, "%-7s %8.0f %11.2f %9s %7d %10d %13.0f %7.4f\n",
				pol, mtbf, perHour, resp, res.JobsKilled, res.Resubmits,
				res.WorkLost, res.MeanAvailableFraction)
		}
		panel = append(panel, s)
		b.WriteByte('\n')
	}
	b.WriteString(plot.Chart("", "failures per hour per cluster", "mean response time (s)", panel, 64, 16))
	b.WriteString("\n(* = saturated. Lost work is re-run after resubmission, so the effective\nload rises with the failure rate even though the offered load is fixed;\nthe single global queue of GS funnels every retry through one backlog,\nwhile LS and LP spread both the capacity loss and the retries. Sizes are\nDAS-s-64: under DAS-s-128 a full-machine job needs every processor up and\nidle at once, so any nonzero failure rate starves it at its FCFS queue\nhead and saturates every policy.)\n")
	if err := e.SaveCSV("faults", panel); err != nil {
		return "", err
	}
	return b.String(), nil
}
