#!/usr/bin/env bash
# Builds selserve and the benchmark driver from this checkout and runs one
# benchmark run. Run it from the repository root:
#
#   bash _e2ebench/run.sh --workload distinct_read --seed 1 --seconds 26 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# checkout (the Go build cache included).
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/selserve ] || [ ! -f _e2ebench/go.mod ]; then
    echo "e2ebench: run from the repository root (go.mod, cmd/selserve and _e2ebench/ must exist)" >&2
    exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/home" "$out/work"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
    GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod" \
    HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
    GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=

go build -o "$out/bin/selserve" ./cmd/selserve
(cd _e2ebench && go build -o "$out/bin/e2ebench" .)
exec "$out/bin/e2ebench" -selserve "$out/bin/selserve" -workdir "$out/work" "$@"
