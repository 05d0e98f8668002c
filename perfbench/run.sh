#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout, then runs it with this script's arguments. Build output goes
# to stderr, so the last line of stdout is the benchmark's JSON result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS=
# The commit is recorded for provenance when the checkout is a git
# repository; VCS stamping is off so a checkout without one builds too.
commit=unknown
if [ -d "$root/.git" ] && command -v git >/dev/null; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
	if [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then
		commit="$commit+dirty"
	fi
fi
(cd "$root/perfbench" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
