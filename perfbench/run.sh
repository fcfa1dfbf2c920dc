#!/usr/bin/env bash
# Builds the overlay benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload relay-small --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The binary, the Go build cache and the
# trace files all stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTMPDIR="$out" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo none)
src=$(find "$root" -path "$out" -prune -o -path "$root/.git" -prune -o \
	\( -name '*.go' -o -name go.mod \) -type f -print |
	LC_ALL=C sort | xargs cat | sha256sum | cut -c1-12)
(cd "$root/perfbench" && go build -trimpath \
	-ldflags "-X main.commit=$commit -X main.srcHash=$src" -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
