#!/usr/bin/env bash
# Builds the campaign benchmark driver and the minijvm child binary from
# the sources of the checkout it is run from, then runs the driver:
#
#   bash campaignbench/run.sh --workload hotspot-inproc --seed 1 --seconds 20 --trace 0
#
# Every build output, the Go build cache, and the driver's scratch files
# (triage store, checkpoint) live under .bench_build/ in the checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -o "$out/minijvm" ./cmd/minijvm >&2
(cd campaignbench && go build -o "$out/campaignbench" .) >&2
exec "$out/campaignbench" -minijvm "$out/minijvm" -work "$out/work" "$@"
