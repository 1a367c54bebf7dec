package experiments

import (
	"fmt"
	"strings"

	"coalloc/internal/core"
	"coalloc/internal/faults"
	"coalloc/internal/plot"
)

// The checkpoint experiment quantifies the checkpoint/restart extension on
// the backfilling policies: at a fixed failure rate, how much of the work a
// kill would forfeit does periodic checkpointing preserve, as a function of
// the checkpoint interval? The model charges nothing for taking a
// checkpoint, so a shorter interval is strictly better here; the curve
// shows the diminishing returns a real system would weigh against the
// checkpoint overhead. Every point draws the same jobs and failures from
// the same named streams, so the differences between intervals are purely
// how much of each killed job's progress survives.

// defaultCheckpointMTBF is the per-cluster failure rate of the checkpoint
// sweep when Params.FaultMTBF is zero: one failure every ~17 minutes per
// cluster, the harshest point of the degradation grid.
const defaultCheckpointMTBF = 1000

// checkpointIntervalGrid is the sweep grid in seconds, from aggressive
// (every 30 s of extended-service progress) to nearly useless (half an
// hour, longer than most victims live). Zero is the no-checkpointing
// baseline.
var checkpointIntervalGrid = []float64{0, 1800, 600, 300, 120, 60, 30}

// Checkpoint sweeps the checkpoint interval for the backfilling policies at
// a fixed failure rate and reports the lost-versus-saved work trade-off.
func Checkpoint(e *Env) (string, error) {
	mttr := e.FaultMTTR
	if mttr == 0 {
		mttr = defaultFaultMTTR
	}
	mtbf := e.FaultMTBF
	if mtbf == 0 {
		mtbf = defaultCheckpointMTBF
	}
	const util = 0.4
	spec := e.MultiSpec(16, e.Derived.Sizes64)
	var b strings.Builder
	b.WriteString("Extension — checkpoint/restart: work lost vs checkpoint interval\n")
	fmt.Fprintf(&b, "(offered gross utilization %.2f, MTBF %.0f s, MTTR %.0f s,\nmulticluster %v, limit 16, DAS-s-64; interval 0 = no checkpointing)\n\n",
		util, mtbf, mttr, MulticlusterSizes)
	fmt.Fprintf(&b, "%-7s %11s %7s %13s %14s %11s %9s\n",
		"policy", "interval(s)", "kills", "lost(proc-s)", "saved(proc-s)", "lost/kill", "resp(s)")
	policies := []string{"GS-EASY", "GS-CONS"}
	jobs := make([]curveJob, len(policies))
	for pi, pol := range policies {
		cs := CurveSpec{Label: pol, Policy: pol, ClusterSizes: MulticlusterSizes, Spec: spec}
		jobs[pi] = curveJob{
			label: pol + " checkpoint",
			grid:  checkpointIntervalGrid,
			config: func(interval float64) core.Config {
				fs := &faults.Spec{
					MTBF:               mtbf,
					MTTR:               mttr,
					RetryBase:          e.FaultRetryBase,
					RetryCap:           e.FaultRetryCap,
					CheckpointInterval: interval,
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
			interval := checkpointIntervalGrid[i]
			perKill := 0.0
			if res.JobsKilled > 0 {
				perKill = res.WorkLost / float64(res.JobsKilled)
			}
			if interval > 0 {
				s.Add(interval, res.WorkLost)
			}
			resp := fmtResp(res.MeanResponse)
			if res.Saturated {
				resp += "*"
			}
			fmt.Fprintf(&b, "%-7s %11.0f %7d %13.0f %14.0f %11.0f %9s\n",
				pol, interval, res.JobsKilled, res.WorkLost, res.WorkSaved, perKill, resp)
		}
		panel = append(panel, s)
		b.WriteByte('\n')
	}
	b.WriteString("(Checkpoints cost nothing in this model, so lost work shrinks\nmonotonically with the interval; the flattening toward small intervals is\nthe bound a real checkpoint overhead would trade against. Long intervals\napproach the no-checkpointing baseline because victims — the most recently\nstarted occupants — rarely live long enough to reach their first\ncheckpoint.)\n")
	if err := e.SaveCSV("checkpoint", panel); err != nil {
		return "", err
	}
	return b.String(), nil
}
