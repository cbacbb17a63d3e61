#!/usr/bin/env bash
# Builds the klocal benchmark from the source tree it sits in and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload engine-walk --seed 1 --seconds 20 --trace 0
# Every build artefact (binary, Go build cache, the go command's own
# config and telemetry files) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
if ! (cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 1
fi
exec "$out/perfbench" --root "$root" "$@"
