#!/usr/bin/env bash
# Builds cmd/hgserved and the benchmark from the sources of the checkout it
# is started in, then runs the benchmark with the given arguments:
#
#   bash hgbench/run.sh --workload schema_analyze --seed 1 --seconds 10 --trace 0
#
# Every build artifact, the Go build cache, temporary session directories
# and trace files stay under .bench_build/ at the checkout root.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/home"
# HOME and XDG_CONFIG_HOME keep the go command's own state inside the
# checkout too. Telemetry is switched off there: in its default "local"
# mode every go command may fork a detached sidecar process that outlives
# this script.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$out/hgserved" ./cmd/hgserved
(cd "$root/hgbench" && go build -o "$out/hgbench" .)
exec "$out/hgbench" -root "$root" -hgserved "$out/hgserved" "$@"
