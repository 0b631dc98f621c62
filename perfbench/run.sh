#!/usr/bin/env bash
# Builds the pipeline benchmark from this checkout's sources and runs
# it. Run from the repository root:
#
#	bash perfbench/run.sh --workload kv-serve --seed 42 --seconds 25 --trace 0
#
# Build products (binary, Go build cache, span and result files) stay
# under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOWORK=off
if [ -z "${REPRO_GIT_SHA:-}" ] && [ -d "$root/.git" ] && sha=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	export REPRO_GIT_SHA="$sha"
fi
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
