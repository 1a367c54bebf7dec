package core

import (
	"fmt"
	"math"

	"coalloc/internal/cluster"
	"coalloc/internal/policies"
	"coalloc/internal/rng"
	"coalloc/internal/workload"
)

// BacklogConfig describes a closed-system run that measures the maximal
// utilization of a policy, following Section 4 of the paper: "we maintain
// a constant backlog and observe the time-average fraction of processors
// being busy, which yields the maximal gross utilization".
type BacklogConfig struct {
	// ClusterSizes, Spec, Policy, Fit, QueueWeights: as in Config.
	ClusterSizes []int
	Spec         workload.Spec
	Policy       string
	Fit          cluster.Fit
	QueueWeights []float64
	// Lookahead is the conservative-backfilling reservation bound (as in
	// Config.Lookahead; 0 = default).
	Lookahead int
	// Backlog is the number of jobs kept waiting at all times. Default 64.
	Backlog int
	// WarmupTime and MeasureTime bound the run in virtual seconds.
	// Defaults: 50_000 and 500_000.
	WarmupTime, MeasureTime float64
	// Seed selects the random streams.
	Seed uint64
}

func (c *BacklogConfig) applyDefaults() {
	if c.Backlog == 0 {
		c.Backlog = 64
	}
	if c.WarmupTime == 0 {
		c.WarmupTime = 50_000
	}
	if c.MeasureTime == 0 {
		c.MeasureTime = 500_000
	}
}

// validate checks the defaulted configuration and returns the policy it
// names.
func (c *BacklogConfig) validate() (policies.Policy, error) {
	pol, err := c.system().build()
	if err != nil {
		return nil, err
	}
	if err := checkSpec(c.Spec, c.system(), pol, workload.Unordered); err != nil {
		return nil, err
	}
	if c.Backlog <= 0 {
		return nil, fmt.Errorf("core: backlog %d must be positive", c.Backlog)
	}
	if !(c.WarmupTime > 0) || !(c.MeasureTime > 0) || math.IsInf(c.WarmupTime+c.MeasureTime, 0) {
		return nil, fmt.Errorf("core: warmup time %g and measure time %g must be positive and finite",
			c.WarmupTime, c.MeasureTime)
	}
	return pol, nil
}

func (c *BacklogConfig) system() system {
	return system{c.ClusterSizes, c.Policy, c.Fit, c.Lookahead, c.QueueWeights}
}

// BacklogResult reports the maximal utilizations measured under constant
// backlog.
type BacklogResult struct {
	Policy string
	// MaxGrossUtilization is the time-average fraction of busy
	// processors, counting extended service times.
	MaxGrossUtilization float64
	// MaxNetUtilization removes the wide-area communication share using
	// the workload's gross/net ratio, as the paper does ("the maximal
	// net utilizations are then computed with the ratios between the
	// two types of utilization").
	MaxNetUtilization float64
	// Throughput is the measured departure rate in jobs per second.
	Throughput float64
	// Jobs is the number of departures in the measurement window.
	Jobs int
}

// RunBacklog executes a constant-backlog simulation: the simulation tops
// the queue up to Backlog jobs at time zero and after every departure,
// measures from WarmupTime and stops at WarmupTime+MeasureTime.
func RunBacklog(cfg BacklogConfig) (BacklogResult, error) {
	cfg.applyDefaults()
	pol, err := cfg.validate()
	if err != nil {
		return BacklogResult{}, err
	}
	s := newSimulation(cfg.system(), pol, rng.NewSource(cfg.Seed), "backlog", noCount, false)
	s.src = backlogSource
	s.spec = cfg.Spec
	s.backlog = cfg.Backlog
	s.topUp()
	s.eng.RunUntil(cfg.WarmupTime)
	s.startMeasuring(s.eng.Now())
	s.eng.RunUntil(cfg.WarmupTime + cfg.MeasureTime)

	now := s.eng.Now()
	gross := s.busy.Average(now) / float64(s.m.Capacity())
	jobs := int(s.respAll.N())
	s.recycle()
	return BacklogResult{
		Policy:              cfg.Policy,
		MaxGrossUtilization: gross,
		MaxNetUtilization:   gross / cfg.Spec.GrossNetRatio(),
		Throughput:          float64(jobs) / (now - cfg.WarmupTime),
		Jobs:                jobs,
	}, nil
}
