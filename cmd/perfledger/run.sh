#!/usr/bin/env bash
# Builds cmd/perfledger from the sources of the checkout it sits in and
# runs it with the given arguments, from the checkout root:
#
#   bash cmd/perfledger/run.sh --workload gmeans-local --seed 1 --seconds 20 --trace 0
#
# The build cache, temporary files, the binary and every file a run
# writes, other than the -o and -spans files, stay under .bench_build/ in
# the current directory.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build/perfledger"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local

# The build stamps the VCS revision into the report's fingerprint when the
# checkout is a git repository; elsewhere, or when git cannot read it, it
# builds without.
(cd "$src" && { go build -o "$out/perfledger" . 2>/dev/null || go build -buildvcs=false -o "$out/perfledger" .; })
exec "$out/perfledger" "$@"
