#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with
# the given arguments (see main.go). Run from the repository root:
#
#   bash perfbench/run.sh --workload live-pair --seed 1 --seconds 15 --trace 0
#
# Everything it builds or writes stays under .bench_build in the
# current directory (Go's build cache included).
set -euo pipefail
root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}"
export GOCACHE="${out}/gocache" GOPATH="${out}/gopath" GOMODCACHE="${out}/gopath/pkg/mod"
export XDG_CONFIG_HOME="${out}/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "${root}/perfbench" && go build -o "${out}/perfbench" .)
exec "${out}/perfbench" --workdir "${out}" "$@"
