#!/usr/bin/env bash
# Builds the spoken-answer benchmark from the checkout's sources and runs
# it with the arguments given, e.g.
#
#   bash voicebench/run.sh --workload explore-cold --seed 1 --seconds 10 --trace 0
#
# Run from the root of a checkout. Every build artifact (binary and Go
# build cache) stays under .bench_build/ inside the checkout.
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/tmp"
export GOCACHE="${out}/gocache"
# The go command keeps its telemetry and settings under the user config
# directory, its scratch files under the temp directory, and modules
# under GOPATH; point them all inside the checkout too.
export XDG_CONFIG_HOME="${out}/config"
export GOTMPDIR="${out}/tmp"
export GOPATH="${out}/gopath"
export GOMODCACHE="${out}/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off

(cd "${root}/voicebench" && go build -o "${out}/voicebench" .)
exec "${out}/voicebench" "$@"
