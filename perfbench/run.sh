#!/usr/bin/env bash
# Builds the benchmark and cmd/dnsblserve from the checkout in the
# current directory, then runs one workload:
#
#   bash perfbench/run.sh --workload report_default --seed 7 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build
# directory ($CARGO_TARGET_DIR, default .bench_build) of the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

go build -o "$out/dnsblserve" ./cmd/dnsblserve >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -dnsblserve "$out/dnsblserve" -workdir "$out" "$@"
