# Tier-1 verification and benchmarking entry points.

GO ?= go

.PHONY: verify test bench-test bench-smoke lint fmt-check

# verify is the tier-1 gate: formatting, vet, build, the detlint
# determinism rules (cmd/mclint), the full test suite, and the test
# suite again under the race detector.
verify: fmt-check
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) run ./cmd/mclint ./...
	$(GO) test ./...
	$(GO) test -race ./...

test:
	$(GO) test ./...

# bench-test runs the tests of the benchmark module (bench/, a module of
# its own that builds against the simulator through a replace directive):
# its golden-output and compare tests, which the root `go test ./...`
# never reaches.
bench-test:
	cd bench && $(GO) test ./...

# lint runs go vet plus the detlint static-analysis suite, one rule per
# hazard: the determinism and pooling invariants (nowallclock,
# noglobalrand, nomaprange, eventretain, jobretain, scratchescape), each
# reporting the direct use and, over the whole-module call graph, the
# call that launders it through a helper; discarded Close/Flush errors
# (closecheck); the //detlint:noalloc compiler escape gate (noalloc);
# and dead suppression directives (stalesuppress). `go run ./cmd/mclint
# -help` prints the rule catalog; `-json` emits findings for tooling.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/mclint ./...

# fmt-check fails when any file drifts from gofmt.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt: the following files need formatting:"; echo "$$out"; exit 1; \
	fi

# bench-smoke runs the repo benchmark (bench/run.sh, declared in
# BENCHMARK.json) once over all four workloads at seed 1. It checks every
# workload's output against its golden and the seed-independent checks,
# and exits non-zero on any failure.
bench-smoke:
	bash bench/run.sh -workload all -reps 1 -seed 1
