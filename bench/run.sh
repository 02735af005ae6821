#!/bin/bash
# The driver's entry point (BENCHMARK.json's command): build the
# benchmark from the checkout's source and run it, touching nothing
# outside the checkout. `go run` would keep its build cache under $HOME
# and link into $TMPDIR on every run; this keeps the cache, the
# toolchain's temporary files and the binary under .bench_build/ at the
# checkout's root, needs nothing from the environment but a go
# toolchain, and relinks only when the source changed.
#
#	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
set -eu

bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$(dirname "$bench")/.bench_build
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/go-path"

go=go
if ! command -v go >/dev/null 2>&1 && [ -x /usr/local/go/bin/go ]; then
	go=/usr/local/go/bin/go
fi

# Hermetic and offline: no module downloads, no toolchain switch, no
# workspace or flags inherited from the caller, no VCS stamping (the
# driver's checkout is not a repository, and what lies above it is not
# the benchmark's business).
export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp"
export GOPATH="$build/go-path" GOMODCACHE="$build/go-path/pkg/mod"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local GO111MODULE=on

"$go" build -C "$bench" -buildvcs=false -o "$build/progmp-bench" . >&2
exec "$build/progmp-bench" "$@"
