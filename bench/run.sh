#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it. The Go build
# cache is kept under .bench_build so that nothing outside the checkout
# is written.
set -euo pipefail
export GOCACHE="$PWD/.bench_build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
mkdir -p .bench_build/bin
go build -o .bench_build/bin/bench ./bench
exec .bench_build/bin/bench "$@"
