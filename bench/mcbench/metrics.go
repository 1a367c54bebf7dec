package main

// metricDef describes one reported metric. BENCHMARK.json at the
// repository root lists the same names, units, directions and bounds; a
// test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
	// moves names, for a per-layer metric, the end-to-end metric and the
	// workload a change to the layer should move.
	moves string
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. setup_s carries the largest bound: it is a few milliseconds
// per call on most workloads, and any work moved into set-up shows there.
var endToEnd = []metricDef{
	{name: "wall_s", unit: "s", better: "lower", bound: 0.20},
	{name: "cpu_s", unit: "s", better: "lower", bound: 0.20},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.20},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// reportOnly are end-to-end numbers printed, written to -json and judged
// by compare, but left out of BENCHMARK.json: sim_jobs_per_s exists on
// job-sources only, and fail_ratio is 0 on a correct run (the result line
// carries it as attempted and failed).
var reportOnly = []metricDef{
	{name: "sim_jobs_per_s", unit: "jobs/s", better: "higher", bound: 0.20},
	{name: "fail_ratio", unit: "ratio", better: "lower", bound: 0},
}

// diagnostics are printed and written to -json only: the wall time before
// normalization and the host speed factor it was scaled by (see calib.go).
var diagnostics = []metricDef{
	{name: "raw_wall_s", unit: "s", better: "lower"},
	{name: "host_speed", unit: "ratio", better: "higher"},
}

// perLayer are the metrics of one traced run. Each names the end-to-end
// metric, and the workload, that a change to its layer should move.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, b := range cpuBuckets {
		defs = append(defs, metricDef{name: "cpu_share." + b, unit: "ratio", better: "lower",
			moves: "wall_s on every workload, by at most the share"})
	}
	for _, p := range harnessPolicies {
		moves := "wall_s on paper-fcfs"
		if p == "GS-EASY" || p == "GS-CONS" {
			moves = "wall_s on backfill"
		}
		defs = append(defs, metricDef{name: "policies.ns_per_call." + p, unit: "ns", better: "lower", moves: moves})
	}
	return append(defs, []metricDef{
		{name: "trace_overhead", unit: "ratio", better: "lower", moves: "none: the cost of tracing itself"},
		{name: "sim.ns_per_event", unit: "ns", better: "lower", moves: "wall_s on paper-fcfs, sim_jobs_per_s on job-sources"},
		{name: "sim.events_per_job", unit: "events/job", better: "lower", moves: "wall_s on paper-fcfs, sim_jobs_per_s on job-sources"},
		{name: "workload.generate_ms", unit: "ms", better: "lower", moves: "setup_s on every workload"},
		{name: "workload.derive_ms", unit: "ms", better: "lower", moves: "setup_s on every workload"},
		{name: "workload.ns_per_job", unit: "ns", better: "lower", moves: "wall_s on paper-fcfs"},
		{name: "cluster.ns_per_place", unit: "ns", better: "lower", moves: "wall_s on paper-fcfs"},
		{name: "cluster.place_hit_ratio", unit: "ratio", better: "higher", moves: "wall_s on paper-fcfs"},
		{name: "queues.disables_per_job", unit: "1/job", better: "lower", moves: "wall_s on paper-fcfs"},
		{name: "policies.passes_per_job", unit: "1/job", better: "lower", moves: "wall_s on backfill"},
		{name: "policies.pass_skip_ratio", unit: "ratio", better: "higher", moves: "wall_s on backfill"},
		{name: "policies.pass_repair_ratio", unit: "ratio", better: "higher", moves: "wall_s on backfill"},
		{name: "policies.backfill_success_ratio", unit: "ratio", better: "higher", moves: "wall_s on backfill"},
		{name: "policies.head_misses_per_job", unit: "1/job", better: "lower", moves: "wall_s on backfill"},
		{name: "policies.lookahead_truncated", unit: "count", better: "lower", moves: "wall_s on backfill"},
		{name: "core.replay_s", unit: "s", better: "lower", moves: "sim_jobs_per_s on job-sources"},
		{name: "core.backlog_s", unit: "s", better: "lower", moves: "sim_jobs_per_s on job-sources"},
		{name: "core.faults_s", unit: "s", better: "lower", moves: "sim_jobs_per_s on job-sources"},
		{name: "core.jobs_simulated", unit: "count", better: "higher", moves: "sim_jobs_per_s on job-sources"},
		{name: "faults.jobs_killed", unit: "count", better: "lower", moves: "sim_jobs_per_s on job-sources"},
		{name: "faults.resubmits", unit: "count", better: "lower", moves: "sim_jobs_per_s on job-sources"},
		{name: "experiments.points_run", unit: "count", better: "lower", moves: "wall_s on paper-fcfs, backfill and observed-sweep"},
		{name: "experiments.parallel_eff", unit: "ratio", better: "higher", moves: "wall_s on paper-fcfs, backfill and observed-sweep"},
		{name: "experiments.tail_s", unit: "s", better: "lower", moves: "wall_s on paper-fcfs, backfill and observed-sweep"},
		{name: "obs.decisions", unit: "count", better: "lower", moves: "wall_s on observed-sweep"},
		{name: "obs.trace_bytes", unit: "bytes", better: "lower", moves: "wall_s on observed-sweep"},
		{name: "runtime.alloc_mb", unit: "MB", better: "lower", moves: "peak_rss_mb and wall_s on paper-fcfs"},
		{name: "runtime.gc_cycles", unit: "count", better: "lower", moves: "peak_rss_mb and wall_s on paper-fcfs"},
		{name: "runtime.gc_pause_ms", unit: "ms", better: "lower", moves: "peak_rss_mb and wall_s on paper-fcfs"},
	}...)
}()
