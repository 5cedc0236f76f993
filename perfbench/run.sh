#!/usr/bin/env bash
# Builds the daemon under test (./cmd/disard) and the benchmark program from
# source, then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload small-jobs --seed 1 --seconds 20 --trace 0
#
# Every build and run artefact stays under .bench_build/ in the working
# directory: the Go build cache, the binaries, the per-run knowledge bases and
# daemon logs, and the trace JSON of --trace 1 runs.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/disard" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/disard and perfbench/)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTOOLCHAIN=local \
	GOTELEMETRY=off XDG_CONFIG_HOME="$out/config"
go build -o "$out/bin/disard" ./cmd/disard
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -daemon "$out/bin/disard" "$@"
