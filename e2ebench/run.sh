#!/usr/bin/env bash
# Builds reptserve and the benchmark driver from this checkout, then runs
# the driver with the arguments given. From the repository root:
#
#   bash e2ebench/run.sh --workload ingest-powerlaw --seed 1 --seconds 15 --trace 0
#
# Binaries, the Go build cache, WAL directories, server logs and span files
# go under $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
case "${CARGO_TARGET_DIR:-}" in
"") out=$root/.bench_build ;;
/*) out=$CARGO_TARGET_DIR ;;
*) out=$root/$CARGO_TARGET_DIR ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root" && go build -o "$out/reptserve" ./cmd/reptserve)
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -server "$out/reptserve" -workdir "$out" -root "$root" "$@"
