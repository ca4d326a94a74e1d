#!/usr/bin/env bash
# Builds the benchmark and the comfedsv-worker binary from this checkout's
# source, then runs the benchmark with the given arguments. Run it from the
# root of the checkout:
#
#   bash perfbench/run.sh --workload als_mc24 --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and the toolchain's scratch and config
# files stay under .bench_build/. Go telemetry is switched off there, so no
# go command leaves its detached upload process behind.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/comfedsv-worker" ]; then
	echo "perfbench: $root holds no comfedsv source; run from the root of a checkout" >&2
	exit 1
fi
mkdir -p "$out/tmp" "$out/config/go/telemetry"
printf 'off' > "$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOENV=off GOFLAGS=
go build -C "$root" -o "$out/comfedsv-worker" ./cmd/comfedsv-worker
go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" -worker-bin "$out/comfedsv-worker" -workdir "$out/work" "$@"
