#!/usr/bin/env sh
# Regenerate the committed bench records, BENCH_*.json in the repo root.
#
# Every value in them is a simulated result (Gbps, packet counts, sim-time
# rates and latencies), so any host regenerates the same bytes and the
# committed files are goldens: CI runs this script and fails on
# `git diff --exit-code -- 'BENCH_*.json'`. Host-time measurements live in
# htbench/ (BENCHMARK.json), which records the host and controls noise.
#
#   BENCH_fig9.json        Gbps per packet size on 100G and 40G ports, the
#                          MoonGen 1-core model, and the 64B run's
#                          metrics-registry dump as a `telemetry` block
#   BENCH_fig9_lossy.json  the 100G sweep through a chaos link with 1%
#                          Bernoulli loss: goodput, losses, drop total and
#                          the 1500B run's telemetry block
#   BENCH_fig9_crash.json  the sweep under the supervisor, tester killed at
#                          50%: delivered packets, completeness (must be 1)
#                          and recoveries; exits nonzero if the recovered
#                          state differs from the uninterrupted run's
#   BENCH_fig10.json       Fig. 10(a) Gbps per port count, 10(b) MoonGen Gbps
#                          per core count, 10(c) packets on 1/2/4/8 shards;
#                          exits nonzero if the shard counts disagree
#   BENCH_l7.json          L4-L7: CPS high water and conn/s, RPS resp/s and
#                          p99 clean and under chaos, DNS resp/s, and the
#                          shard-count determinism check; exits nonzero on
#                          any off-shape result
#
#   scripts/bench.sh [build-dir]
#
# The build dir (default: build) must already be configured and built.
set -eu

cd "$(dirname "$0")/.."

if [ $# -gt 1 ]; then
  echo "usage: scripts/bench.sh [build-dir]" >&2
  exit 2
fi
BIN="${1:-build}/bench"

if [ ! -x "$BIN/l7_cps_rps" ]; then
  echo "bench.sh: $BIN not built (run: cmake -B ${1:-build} -S . && cmake --build ${1:-build} -j)" >&2
  exit 1
fi

"$BIN/fig9_throughput_single_port" --json BENCH_fig9.json
"$BIN/fig9_throughput_single_port" --loss 0.01 --json BENCH_fig9_lossy.json
"$BIN/fig9_throughput_single_port" --crash --json BENCH_fig9_crash.json
"$BIN/fig10_throughput_multi_port" --json BENCH_fig10.json
"$BIN/l7_cps_rps" --json BENCH_l7.json

# The fig9 records must carry the registry dump.
for f in BENCH_fig9.json BENCH_fig9_lossy.json; do
  grep -q '"telemetry":' "$f" || { echo "bench.sh: $f missing telemetry block" >&2; exit 1; }
done

echo
echo "wrote BENCH_fig9.json BENCH_fig9_lossy.json BENCH_fig9_crash.json BENCH_fig10.json BENCH_l7.json"
