#!/usr/bin/env bash
# Builds the CloudFog benchmark from source and runs it, passing every
# argument through. Run from the repository root:
#
#   bash cfbench/run.sh --workload live-stream --seed 1 --seconds 20 --trace 0
#   bash cfbench/run.sh --workload all --seconds 10     # every workload, with tracing overhead
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build/ in the repository root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gomodcache" "$out/config"
(
	cd "$here"
	GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache" \
		XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off \
		GOFLAGS= GOTELEMETRY=off \
		go build -o "$out/cfbench" .
) >&2
cd "$root"
exec "$out/cfbench" "$@"
