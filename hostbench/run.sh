#!/usr/bin/env bash
# Builds the host benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash hostbench/run.sh --workload paper-88x72 --seed 1 --seconds 20 --trace 0
#
# Every build artefact (the binary and the Go build cache) stays under
# .bench_build at the repository root. Outside a full checkout the build
# fails, because the module replaces zynqfusion with the parent directory.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off
(cd "$root/hostbench" && go build -trimpath -o "$out/hostbench" .) >&2
exec "$out/hostbench" "$@"
