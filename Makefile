# Tier-1 verification and benchmarking entry points.

GO ?= go

.PHONY: verify test bench-test bench-smoke outputs lint fmt-check

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

# bench-test vets and tests the benchmark module (bench/, a module of its
# own that builds against the simulator through a replace directive): go
# vet over bench/mcbench, then its golden-output and compare tests. The
# root `go vet ./...` and `go test ./...` never reach this module.
bench-test:
	cd bench && $(GO) vet ./...
	cd bench && $(GO) test ./...

# lint runs go vet plus the detlint static-analysis suite, one rule per
# hazard: the determinism and pooling invariants (nowallclock,
# noglobalrand, nomaprange, eventretain, jobretain, scratchescape), where
# nowallclock and the three pooling rules also report, over the
# whole-module call graph, the call that launders the hazard through a
# helper; discarded Close/Flush errors
# (closecheck); and dead suppression directives (stalesuppress). `go run
# ./cmd/mclint -help` prints the rule catalog; `-json` emits findings for
# tooling.
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
# and exits non-zero on any failure. It checks the benchmark's own
# outputs; `make outputs` (below) collects the commands' outputs for a
# parent-vs-change `diff -r`.
bench-smoke:
	bash bench/run.sh -workload all -reps 1 -seed 1

# outputs writes the user-visible output corpus of the commands into
# OUT (required): `mcexp -quick -data OUT/mcexp all` text and CSVs; mcsim
# stdout with the -metrics block, plus its -trace JSONL, for LS, LS-sorted
# -unbalanced, LP -unbalanced -decisions, LS under failures with
# -decisions, GS-CONS with failures, checkpoints and -decisions, SC -reps
# 3, SC-EASY and SC-CONS; one -backlog run; and two -replay runs with
# their -schedule CSVs: the synthetic DAS log, and ties.swf, the first
# 5000 records of the `mctrace gen` log with run times rounded up to
# whole seconds, replayed at load 1. In that log some arrivals fall on
# the instant a job departs, so its run covers the replay tie rule (an
# arrival is submitted before a departure at the same instant). A
# refactor that must not change outputs runs it on the parent tree and
# on the change and compares them with `diff -r`.
outputs:
	@if [ -z "$(OUT)" ]; then echo "usage: make outputs OUT=DIR"; exit 2; fi
	@set -e; bin=$$(mktemp -d); trap 'rm -rf "$$bin"' EXIT; \
	$(GO) build -o "$$bin/" ./cmd/mcsim ./cmd/mcexp ./cmd/mctrace; \
	mkdir -p "$(OUT)/mcexp"; \
	"$$bin/mcexp" -quick -data "$(OUT)/mcexp" all > "$(OUT)/mcexp.txt"; \
	sim() { name=$$1; shift; \
		"$$bin/mcsim" -jobs 5000 -warmup 500 -metrics -trace "$(OUT)/$$name.jsonl" "$$@" > "$(OUT)/$$name.txt"; }; \
	sim ls -policy LS; \
	sim ls-sorted -policy LS-sorted -unbalanced; \
	sim lp -policy LP -unbalanced -decisions; \
	sim ls-faults -policy LS -mtbf 2000 -decisions; \
	sim cons-faults -policy GS-CONS -decisions -mtbf 3000 -checkpoint-interval 300; \
	sim sc-reps -policy SC -reps 3; \
	sim sc-easy -policy SC-EASY; \
	sim sc-cons -policy SC-CONS; \
	"$$bin/mcsim" -policy GS -limit 24 -backlog > "$(OUT)/backlog.txt"; \
	"$$bin/mcsim" -replay -policy GS-CONS -jobs 5000 -metrics -trace "$(OUT)/replay.jsonl" \
		-schedule "$(OUT)/replay-schedule.csv" > "$(OUT)/replay.txt"; \
	"$$bin/mctrace" gen -o "$$bin/das.swf"; \
	awk '/^;/ { next } n++ < 5000 { v = int($$4); if (v < $$4) v++; $$4 = v; print }' \
		"$$bin/das.swf" > "$(OUT)/ties.swf"; \
	"$$bin/mcsim" -replay -policy GS-CONS -load 1 -metrics -trace "$(OUT)/replay-ties.jsonl" \
		-schedule "$(OUT)/replay-ties-schedule.csv" "$(OUT)/ties.swf" > "$(OUT)/replay-ties.txt"; \
	echo "outputs written to $(OUT)"
