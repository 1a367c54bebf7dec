#!/usr/bin/env bash
# Builds bench/mcbench from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh -workload paper-fcfs -seed 1 -seconds 20 -trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# repository: the Go build cache, temporary files and the binary. The build
# fails, and the script exits non-zero without a result, when the simulator
# sources are not next to bench/.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath \
	TMPDIR=$out/tmp PPROF_TMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/bench" && go build -o "$out/mcbench" ./mcbench)
exec "$out/mcbench" "$@"
