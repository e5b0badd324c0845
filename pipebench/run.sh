#!/usr/bin/env bash
# Builds the pipeline benchmark from the checkout's sources and runs it.
#
#   bash pipebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, span files) stays under .bench_build/ in the
# current directory, and the go command is kept offline.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=

(cd "$here" && go build -o "$out/pipebench" .)
exec "$out/pipebench" "$@"
