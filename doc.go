// Package coalloc is a trace-based discrete-event simulator of processor
// co-allocation policies in multicluster systems, reproducing Bucur and
// Epema, "Trace-Based Simulations of Processor Co-Allocation Policies in
// Multiclusters", HPDC 2003.
//
// The library models a homogeneous multicluster (the paper's DAS: four
// clusters of 32 processors) scheduling rigid parallel jobs by pure space
// sharing. Jobs issue unordered requests — tuples of component sizes placed
// Worst Fit on distinct clusters — and are served by one of four policies:
// GS (one global FCFS queue), LS (per-cluster local queues with system-wide
// co-allocation of multi-component jobs), LP (local queues with priority
// over a global queue holding the multi-component jobs), and SC (a
// single-cluster FCFS reference scheduling total requests).
//
// Packages:
//
//   - internal/sim — the discrete-event kernel (event heap, virtual clock)
//   - internal/rng, internal/dist, internal/stats — random streams,
//     variate generators, estimators
//   - internal/dastrace — the synthetic DAS1-like job log and the SWF
//     trace format
//   - internal/workload — DAS-s-128 / DAS-s-64 / DAS-t-900 distributions,
//     the component-splitting rule, the 1.25 wide-area extension factor
//   - internal/cluster, internal/queues, internal/policies — multicluster
//     state, FCFS queues with enable/disable bookkeeping, the policies
//   - internal/core — open-system runs and constant-backlog (maximal
//     utilization) runs
//   - internal/experiments, internal/plot — one runner per paper table and
//     figure, ASCII charts and CSV output
//
// Binaries: cmd/mcsim (one run), cmd/mcexp (paper experiments by id),
// cmd/mctrace (synthetic trace generation and inspection). Runnable
// examples live under examples/. `mcexp -quick all` regenerates every
// table and figure of the paper's evaluation at reduced fidelity, and the
// repository benchmark under bench/ times the paper's sweeps end to end
// and per layer; see EXPERIMENTS.md for the paper-versus-measured record.
package coalloc
