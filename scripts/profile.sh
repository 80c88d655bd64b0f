#!/usr/bin/env bash
# gprof flat profile of one perfbench workload, summed over several runs
# (docs/PERF.md §10-12).
# Usage: scripts/profile.sh WORKLOAD [RUNS]
#   WORKLOAD is a perfbench workload name (perfbench/README.md); RUNS
#   defaults to 3. Configures the unmodified perfbench/ tree as a Release
#   build with -pg into .bench_build/perfbench-pg, runs
#   `perfbench_driver --workload WORKLOAD --seed 1` RUNS times, sums the
#   gmon.out files with `gprof -s` and prints the top 15 flat entries.
#   Short runs give few samples each; summing runs steadies the shares.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: scripts/profile.sh WORKLOAD [RUNS]" >&2
  exit 2
fi
WORKLOAD="$1"
RUNS="${2:-3}"
case "$RUNS" in
  '' | *[!0-9]* | 0) echo "RUNS must be a positive integer" >&2; exit 2 ;;
esac
command -v gprof > /dev/null || { echo "gprof not found" >&2; exit 2; }

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD="$ROOT/.bench_build/perfbench-pg"
mkdir -p "$BUILD"
LOG="$BUILD/build.log"
if [ ! -f "$BUILD/CMakeCache.txt" ]; then
  cmake -S "$ROOT/perfbench" -B "$BUILD" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg > "$LOG" 2>&1 ||
    { cat "$LOG" >&2; exit 1; }
fi
cmake --build "$BUILD" -j "$(nproc)" > "$LOG" 2>&1 || { cat "$LOG" >&2; exit 1; }
DRIVER="$BUILD/perfbench_driver"

# gmon.out lands in the working directory of each run.
OUT="$BUILD/gmon-$WORKLOAD"
rm -rf "$OUT"
mkdir -p "$OUT"
for ((i = 1; i <= RUNS; i++)); do
  (cd "$OUT" && "$DRIVER" --workload "$WORKLOAD" --seed 1 > /dev/null)
  mv "$OUT/gmon.out" "$OUT/gmon.$i"
done
(cd "$OUT" && gprof -s "$DRIVER" gmon.[0-9]*)

echo "== $WORKLOAD: gprof flat profile, $RUNS runs summed, top 15 =="
# The flat profile's five header lines, then its first 15 entries.
gprof -b -p "$DRIVER" "$OUT/gmon.sum" | head -n 20
