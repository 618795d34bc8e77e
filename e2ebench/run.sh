#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it.
# All arguments pass through to the benchmark binary:
#
#   bash e2ebench/run.sh --workload linreg-local --seed 1 --seconds 20 --trace 0
#   bash e2ebench/run.sh --workload all --seconds 5
#
# Build outputs, the Go build cache and trace files stay under
# .bench_build/ at the root of the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build/e2ebench"
mkdir -p "$out/home"
(
	cd "$here"
	# HOME and the Go caches point into the checkout so the build writes
	# nothing outside it; no module is ever downloaded.
	HOME="$out/home" GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" \
		GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly \
		go build -o "$out/e2ebench" .
) 1>&2
cd "$root"
exec "$out/e2ebench" "$@"
