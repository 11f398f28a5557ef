#!/usr/bin/env bash
# Builds the serving benchmark from the checkout's sources and runs it.
# Run from the repository root:
#   bash servebench/run.sh --workload warm-eval --seed 1 --seconds 15 --trace 0
# Build outputs (binary, Go build cache) go under .bench_build/ (or
# $CARGO_TARGET_DIR when set) inside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
# The go command's own config and telemetry files live under
# $XDG_CONFIG_HOME; keep them in the checkout too.
export XDG_CONFIG_HOME="$out/config"
if [ -e "$root/.git" ] && git -C "$root" rev-parse HEAD >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse HEAD)
else
	# Not a git checkout: identify the tree by a digest of its Go sources.
	commit=src-$(cd "$root" && find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)
fi
(cd "$root/servebench" && go build -trimpath -ldflags "-X main.commit=$commit" -o "$out/servebench" .) >&2
exec "$out/servebench" "$@"
