#!/usr/bin/env bash
# run.sh builds fold3dbench and runs it with the given arguments. Run it from
# the repository root:
#
#   bash cmd/fold3dbench/run.sh -workload chip-s100 -seed 42 -seconds 20 -trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# repository root: the Go build cache, the binaries, scratch directories and
# the JSON Lines result file.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -f "$root/cmd/fold3dbench/go.mod" ]]; then
	echo "run.sh: run from the root of a fold3d checkout" >&2
	exit 2
fi

out="$root/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOFLAGS= GOPROXY=off GOWORK=off GOENV=off GOTOOLCHAIN=local
mkdir -p "$GOCACHE" "$GOTMPDIR" "$out/bin"

(cd "$root/cmd/fold3dbench" && go build -o "$out/bin/fold3dbench" .)
exec "$out/bin/fold3dbench" -root "$root" "$@"
