#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the Go toolchain writes (build cache, binary, spans) stays under
# .bench_build/ at the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/perfbench/perfbench" .) >&2
cd "$root"
exec "$out/perfbench/perfbench" "$@"
