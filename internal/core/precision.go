package core

import (
	"fmt"
	"math"

	"coalloc/internal/stats"
	"coalloc/internal/workpool"
)

// PrecisionConfig wraps a Config with a sequential stopping rule: run
// independent replications until the 95% confidence half-width of the mean
// response time drops below the requested relative precision. This is the
// standard discipline for publication-grade simulation points (the CSIM
// runs behind the paper's curves would have used the same idea).
type PrecisionConfig struct {
	// Run is the base configuration; its Seed starts the replication
	// sequence.
	Run Config
	// RelativePrecision is the target half-width divided by the mean
	// (e.g. 0.05 for +-5%). Must be positive.
	RelativePrecision float64
	// MinReplications and MaxReplications bound the sequential
	// procedure. Defaults: 3 and 20.
	MinReplications, MaxReplications int
}

func (c *PrecisionConfig) applyDefaults() {
	if c.MinReplications == 0 {
		c.MinReplications = 3
	}
	if c.MaxReplications == 0 {
		c.MaxReplications = 20
	}
}

// PrecisionResult extends the merged Result with the stopping diagnosis.
type PrecisionResult struct {
	Result
	// Replications is the number of replications actually run — i.e. the
	// number the stopping rule consumed; speculative replications beyond
	// the stopping point are discarded and not counted.
	Replications int
	// AchievedRelative is the final relative half-width.
	AchievedRelative float64
	// Converged reports whether the target precision was met within
	// MaxReplications. A saturated configuration typically does not
	// converge — its "mean response time" is not a steady-state
	// quantity.
	Converged bool
}

// RunUntilPrecision runs replications until the confidence target is met.
//
// Replications execute speculatively in batches on the shared worker pool:
// the first MinReplications (which the stopping rule must consume no
// matter what) launch together, and each further batch spans the pool's
// width. The stopping decision itself consumes results strictly in seed
// order, evaluating the same Welford recurrence and half-width formula the
// serial loop would, so both the replication count at which it stops and
// the merged PrecisionResult are bit-identical to running the sequential
// procedure one replication at a time — speculation only ever runs
// replications the serial loop might not have needed, and those are
// discarded unread. With an Observer attached (single-threaded by
// contract) the batches degenerate to one replication at a time, serially,
// so no speculative run ever pollutes the trace.
//
// The merged Result carries every Result field, folded across the consumed
// replications exactly as RunReplications does.
func RunUntilPrecision(cfg PrecisionConfig) (PrecisionResult, error) {
	if cfg.MinReplications == 1 {
		// Checked before the defaults fill in: the generic bounds error
		// below would blame the pair ("bounds 1..20") when the actual
		// problem is that a single replication has no variance estimate.
		return PrecisionResult{}, fmt.Errorf(
			"core: MinReplications 1 cannot estimate a confidence half-width; use at least 2, or leave it 0 for the default of 3")
	}
	cfg.applyDefaults()
	if cfg.RelativePrecision <= 0 {
		return PrecisionResult{}, fmt.Errorf("core: relative precision %g must be positive", cfg.RelativePrecision)
	}
	if cfg.MinReplications < 2 || cfg.MaxReplications < cfg.MinReplications {
		return PrecisionResult{}, fmt.Errorf("core: replication bounds %d..%d",
			cfg.MinReplications, cfg.MaxReplications)
	}

	results := make([]Result, cfg.MaxReplications)
	errs := make([]error, cfg.MaxReplications)
	ran := 0 // replications launched (and completed) so far
	batch := workpool.Size()
	if cfg.Run.Observer != nil || batch < 1 {
		batch = 1
	}
	// ensure runs replications [ran, n) and waits for them.
	ensure := func(n int) {
		n = min(n, cfg.MaxReplications)
		if n <= ran {
			return
		}
		runReplicationRange(cfg.Run, results, errs, ran, n)
		ran = n
	}

	// The stopping rule consumes no result before MinReplications, so
	// those are not speculative — launch them as one batch.
	ensure(cfg.MinReplications)

	var resp stats.Welford
	for n := 1; n <= cfg.MaxReplications; n++ {
		if n > ran {
			ensure(ran + batch)
		}
		if errs[n-1] != nil {
			return PrecisionResult{}, errs[n-1]
		}
		resp.Add(results[n-1].MeanResponse)
		if n < cfg.MinReplications {
			continue
		}
		rel := math.Inf(1)
		if resp.Mean() != 0 {
			rel = resp.HalfWidth() / math.Abs(resp.Mean())
		}
		if rel <= cfg.RelativePrecision || n == cfg.MaxReplications {
			// mergeReplications computes the across-replication mean and
			// half-width with the same recurrence and formula as the
			// decision loop above, so the merged MeanResponse and
			// RespHalfWidth are bitwise the values the rule stopped on.
			merged := PrecisionResult{
				Result:           mergeReplications(results[:n]),
				Replications:     n,
				AchievedRelative: rel,
				Converged:        rel <= cfg.RelativePrecision,
			}
			return merged, nil
		}
	}
	panic("core: unreachable") // the loop always returns at MaxReplications
}
