// Package faults implements deterministic processor failure and repair
// injection for the multicluster simulation. Each cluster has its own
// Poisson failure process and exponential repair times, drawn from named
// RNG streams ("faults/fail/<c>", "faults/repair/<c>") so the draws are a
// pure function of the run seed: the workload streams never see a fault
// draw, so a run draws the same jobs under any failure rate, and a
// same-seed run replays byte-identically.
//
// The semantics are the simplest model that exercises co-allocation under
// capacity flap: a failure takes one processor of the cluster down. If the
// cluster has an idle processor the failure is absorbed silently by the
// schedulers (capacity shrinks); if every up processor is busy, the most
// recently started job with a component on the cluster is aborted — losing
// its completed work — and resubmitted after a capped exponential backoff.
// If the whole cluster is already down the failure is skipped (counted,
// but the process keeps ticking). Repairs return processors to the idle
// pool and give the policy a scheduling opportunity under the same
// ordering contract as a departure.
//
// An optional checkpoint/restart model (Spec.CheckpointInterval) softens
// the abort: a job checkpoints every interval of extended-service runtime,
// a kill forfeits only the progress since the last checkpoint, and the
// resubmitted job runs only its remainder.
package faults

import (
	"fmt"
	"math"
	"strconv"

	"coalloc/internal/rng"
)

// Spec configures the per-cluster failure and repair processes. The zero
// value (and a nil pointer) disables fault injection entirely; the
// simulator guarantees that a disabled spec leaves a run bit-identical to
// one configured without faults.
type Spec struct {
	// MTBF is the mean time between failures of one cluster, in virtual
	// seconds. Each cluster's failures form an independent Poisson
	// process of rate 1/MTBF. Zero disables fault injection.
	MTBF float64
	// MTTR is the mean time to repair one failed processor, in virtual
	// seconds. Required (positive) when MTBF is positive.
	MTTR float64
	// RetryBase and RetryCap bound the virtual-time backoff before an
	// aborted job is resubmitted: the k-th abort of a job delays its
	// resubmission by min(RetryBase * 2^(k-1), RetryCap) seconds.
	// Zero values default to 10 s and 600 s.
	RetryBase float64
	RetryCap  float64
	// CheckpointInterval, when positive, enables periodic checkpointing:
	// a running job checkpoints its progress every CheckpointInterval
	// seconds of extended-service runtime, and a kill forfeits only the
	// work since the last checkpoint. The preserved progress shortens the
	// job's next dispatch (workload.Job.RemainingTime). Zero disables
	// checkpointing — a kill forfeits everything, the pre-checkpoint
	// semantics.
	CheckpointInterval float64
}

// Enabled reports whether the spec asks for fault injection: any MTBF but
// zero, so that Validate rejects a negative or NaN MTBF instead of the
// spec being dropped as fault-free. It is safe on a nil receiver.
func (s *Spec) Enabled() bool { return s != nil && s.MTBF != 0 }

// Normalized returns the spec with the retry defaults filled in.
func (s Spec) Normalized() Spec {
	if s.RetryBase == 0 {
		s.RetryBase = 10
	}
	if s.RetryCap == 0 {
		s.RetryCap = 600
	}
	return s
}

// Validate reports errors in an enabled spec. Retry defaults are applied
// before checking, so a spec straight from a config is acceptable.
func (s Spec) Validate() error {
	s = s.Normalized()
	if s.MTBF <= 0 || math.IsNaN(s.MTBF) || math.IsInf(s.MTBF, 0) {
		return fmt.Errorf("faults: MTBF %g must be positive and finite", s.MTBF)
	}
	if s.MTTR <= 0 || math.IsNaN(s.MTTR) || math.IsInf(s.MTTR, 0) {
		return fmt.Errorf("faults: MTTR %g must be positive and finite", s.MTTR)
	}
	if s.RetryBase <= 0 || math.IsNaN(s.RetryBase) || math.IsInf(s.RetryBase, 0) {
		return fmt.Errorf("faults: retry base %g must be positive and finite", s.RetryBase)
	}
	if s.RetryCap < s.RetryBase || math.IsNaN(s.RetryCap) || math.IsInf(s.RetryCap, 0) {
		return fmt.Errorf("faults: retry cap %g must be finite and at least the base %g",
			s.RetryCap, s.RetryBase)
	}
	if s.CheckpointInterval < 0 || math.IsNaN(s.CheckpointInterval) || math.IsInf(s.CheckpointInterval, 0) {
		return fmt.Errorf("faults: checkpoint interval %g must be non-negative and finite (0 disables checkpointing)",
			s.CheckpointInterval)
	}
	return nil
}

// Checkpointed returns the progress that survives an abort of a job that
// has accumulated the given extended-service progress: the largest
// checkpoint multiple not exceeding it, or 0 when checkpointing is
// disabled. The result is monotone in progress and antitone in the
// interval — a shorter interval never loses more work on the same kill.
func (s Spec) Checkpointed(progress float64) float64 {
	if s.CheckpointInterval <= 0 || progress <= 0 {
		return 0
	}
	return math.Floor(progress/s.CheckpointInterval) * s.CheckpointInterval
}

// Backoff returns the resubmission delay after a job's retry-th abort
// (1-based): RetryBase doubling per retry, capped at RetryCap. Retry
// defaults are applied first — on a spec that skipped Normalized, a zero
// cap would otherwise clamp every backoff to zero.
//
// The doubling uses Ldexp with the exponent clamped to the float64
// range, so very large retry counts saturate at the cap. The clamp is
// load-bearing: Ldexp adds the exponent to the base's own exponent with
// plain int arithmetic, so an exponent near MaxInt wraps negative and
// returns 0 — an unbounded retry storm with zero delay.
func (s Spec) Backoff(retry int) float64 {
	s = s.Normalized()
	if retry < 1 {
		retry = 1
	}
	e := retry - 1
	if e > 2098 { // smallest subnormal (2^-1074) doubled this often is +Inf
		return s.RetryCap
	}
	d := math.Ldexp(s.RetryBase, e)
	if !(d < s.RetryCap) { // catches overflow to +Inf too
		return s.RetryCap
	}
	return d
}

// Stats counts what the injector did over one run. Counts cover the whole
// run including warmup: they diagnose the injection process itself, not
// the measured steady state.
type Stats struct {
	// Failures is the number of failures applied (a processor went down).
	Failures uint64
	// Skipped counts failure events that found the whole cluster already
	// down and changed nothing.
	Skipped uint64
	// Repairs is the number of processors returned to service.
	Repairs uint64
	// Kills is the number of running jobs aborted by a failure.
	Kills uint64
	// Resubmits is the number of aborted jobs whose backoff elapsed and
	// that re-entered their queue (at most Kills; the run can end first).
	Resubmits uint64
	// WorkLost is the processor-seconds of completed-then-discarded
	// service across all kills.
	WorkLost float64
	// WorkSaved is the processor-seconds of progress that checkpointing
	// preserved across kills: per kill, the work run since dispatch that
	// survives into the resubmission. Zero without checkpointing;
	// WorkLost + WorkSaved is the total work in flight at kill times.
	WorkSaved float64
}

// Injector drives the failure and repair processes of one run. It owns the
// per-cluster RNG streams and the running Stats; the simulator owns the
// event scheduling and the capacity bookkeeping.
type Injector struct {
	// Spec is the normalized, validated configuration.
	Spec Spec
	// Stats accumulates what happened; read it after the run.
	Stats Stats

	fail   []*rng.Stream
	repair []*rng.Stream
}

// NewInjector returns an injector for the given cluster count, drawing
// from named streams of src. It panics on an invalid spec or cluster
// count — the simulator validates configs before construction.
func NewInjector(spec Spec, clusters int, src *rng.Source) *Injector {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		panic(err.Error())
	}
	if clusters <= 0 {
		panic(fmt.Sprintf("faults: NewInjector with %d clusters", clusters))
	}
	inj := &Injector{
		Spec:   spec,
		fail:   make([]*rng.Stream, clusters),
		repair: make([]*rng.Stream, clusters),
	}
	for c := 0; c < clusters; c++ {
		inj.fail[c] = src.Stream("faults/fail/" + strconv.Itoa(c))
		inj.repair[c] = src.Stream("faults/repair/" + strconv.Itoa(c))
	}
	return inj
}

// NextFailure draws the delay until cluster c's next failure.
func (in *Injector) NextFailure(c int) float64 { return in.fail[c].Exp(1 / in.Spec.MTBF) }

// RepairDelay draws the repair duration for a failure on cluster c.
func (in *Injector) RepairDelay(c int) float64 { return in.repair[c].Exp(1 / in.Spec.MTTR) }
