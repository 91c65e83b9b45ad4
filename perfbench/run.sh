#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and executes it.
# Run from the repository root:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Every build artifact and Go cache stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
export XDG_CONFIG_HOME="$out/config" HOME="$out/home"
# The revision is recorded with every result; outside a git checkout it
# reads "unknown". VCS stamping stays off so that a checkout that is not a
# repository of its own still builds.
commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
go -C "$root/perfbench" build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
