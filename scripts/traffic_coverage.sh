#!/usr/bin/env bash
# Measures which production code the real traffic reaches: the figure
# sweep and its ablations, the soak, trace-file replay and resume, store
# maintenance, an instrumented sweep, a coordinator-plus-worker sweep,
# tinysim and the benchmark's smoke run. Every binary is built with
# coverage instrumentation and writes into one GOCOVERDIR.
#
# Run it from the repository root:
#
#   bash scripts/traffic_coverage.sh OUTDIR
#
# OUTDIR/func.txt is the `go tool cover -func` report over the library
# packages (bench/, cmd/ and examples/ left out); OUTDIR/zero.txt lists
# the functions no traffic reached. It gates nothing.
set -euo pipefail
root="$PWD"
out="$(mkdir -p "${1:?usage: traffic_coverage.sh OUTDIR}" && cd "$1" && pwd)"
bin="$out/bin" work="$out/work" cov="$out/covdata"
rm -rf "$bin" "$work" "$cov"
mkdir -p "$bin" "$work" "$cov"
port="${TRAFFIC_PORT:-16070}"

go build -cover -coverpkg=./... -o "$bin/" ./cmd/experiments ./cmd/tracegen ./cmd/tinysim
(cd bench && go build -cover -coverpkg=tinydir/... -o "$bin/bench" .)
export GOCOVERDIR="$cov"
x="$bin/experiments"

"$x" -fig all -scale test -csv -q > /dev/null
for f in format genlen window; do "$x" -fig "$f" -scale test -q > /dev/null 2>&1; done
"$x" -soak 3 -scale test -q

"$bin/tracegen" -app worksteal -cores 8 -refs 800 -write "$work/ws.trace" > /dev/null
"$x" -trace-file "$work/ws.trace" -scheme tiny -cache-dir "$work/store" > /dev/null 2>&1
"$x" -trace-file "$work/ws.trace" -scheme tiny -cache-dir "$work/store" -resume > /dev/null 2>&1
"$x" -store-scrub -cache-dir "$work/store" > /dev/null
"$x" -store-gc 1h -store-gc-dry-run -cache-dir "$work/store" > /dev/null

"$x" -fig 1 -scale test -q -obs-dir "$work/obs" -obs-trace 1000 -watchdog 100000 > /dev/null

"$x" -serve -http "localhost:$port" -cache-dir "$work/fleet" -journal-dir "$work/journal" \
	-fig 1 -scale test -q -csv > /dev/null 2> "$work/coord.log" &
coord=$!
up=
for _ in $(seq 1 100); do
	curl -sf "http://localhost:$port/dash/status" > /dev/null && { up=1; break; }
	sleep 0.2
done
[ -n "$up" ] || { echo "coordinator never came up" >&2; kill "$coord"; exit 1; }
"$x" -worker "http://localhost:$port" -worker-name cov-w1 -q > "$work/w1.log" 2>&1 &
w1=$!
curl -sf "http://localhost:$port/dash/status" > /dev/null || true
curl -sf "http://localhost:$port/metrics" > /dev/null || true
wait "$coord"
wait "$w1" || true

"$bin/tinysim" -scale test > /dev/null
"$bin/bench" --smoke --trace 1 --seconds 1 --workdir "$work/bench" > /dev/null 2>&1

go tool covdata textfmt -i "$cov" -o "$out/all.out"
grep -Ev '^tinydir/(bench|cmd|examples)/' "$out/all.out" > "$out/cover.out"
go tool cover -func "$out/cover.out" > "$out/func.txt"
grep -E '[[:space:]]0\.0%$' "$out/func.txt" > "$out/zero.txt" || true
echo "traffic coverage: $(tail -1 "$out/func.txt" | awk '{print $NF}') of statements," \
	"$(wc -l < "$out/zero.txt") functions at 0.0% (report: $out/func.txt)"
