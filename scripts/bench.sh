#!/usr/bin/env bash
# Runs the repo's core benchmarks and writes BENCH_<n>.json with ns/op,
# B/op and allocs/op per benchmark plus the machine's CPU count (nproc),
# so the perf trajectory across PRs is machine-readable. Usage:
#
#   scripts/bench.sh <pr-number> [benchtime]
#
# e.g. `scripts/bench.sh 3` writes BENCH_3.json at the repo root.
set -euo pipefail

n=${1:?usage: scripts/bench.sh <pr-number> [benchtime]}
benchtime=${2:-3x}
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/BENCH_${n}.json"
cpus=$(nproc)

run() { # run <benchtime> <pattern> <packages...>
  local bt=$1 pat=$2
  shift 2
  (cd "$root" && go test -run xxx -bench "$pat" -benchmem -benchtime "$bt" "$@" 2>/dev/null) |
    grep -E '^Benchmark'
}

{
  # Simulation-level benchmarks: each iteration is a full campaign/run, so
  # a small fixed count keeps the script fast while staying comparable.
  run "$benchtime" 'CampaignSequential$' .
  # Population-scale chart: the shrunk 100k-preset shape at growing
  # populations, reporting simulator throughput as events/sec. Parallel
  # cells carry shards/coordination_share/worker_stall_ns metrics and
  # every events/sec cell records GOMAXPROCS, so bench_compare.sh can
  # refuse to compare cells measured under different parallelism.
  run "$benchtime" 'PopulationScale$' .
  run "$benchtime" 'PopulationScaleFaulted$' .
  run "$benchtime" 'PopulationScaleGray$' .
  # The parallel chart is pinned at GOMAXPROCS=4 so the snapshot rows are
  # tagged consistently across machines (Go only appends the -N name
  # suffix for the procs the run actually used). Four workers timesharing
  # fewer CPUs measure the rendezvous overhead, not a speedup, so on a
  # smaller box the chart is skipped rather than recorded. Subshell, not
  # an env prefix: `VAR=x shell_function` does not export into the
  # function's child processes on all bash versions.
  if [ "$cpus" -ge 4 ]; then
    (export GOMAXPROCS=4 && run "$benchtime" 'PopulationScaleParallel$' .)
  else
    echo "bench.sh: skipping PopulationScaleParallel: GOMAXPROCS=4 needs 4 CPUs, nproc=$cpus" >&2
  fi
  # Substrate micro-benchmarks: hot-path costs, higher iteration counts.
  run 1000x 'QueryPath$' ./internal/core
  # Directory periodic sweep: the steady-state slab tick and the
  # evict+readmit churn cycle over a 2000-member index.
  run 500x 'DirectoryTick' ./internal/dring
  run 10000x 'KernelSchedule$' ./internal/simkernel
  run 10000x 'NetworkSend$' ./internal/simnet
  run 10000x 'GossipRound$' ./internal/gossip
} | awk -v pr="$n" -v nproc="$cpus" '
  BEGIN { printf "{\n  \"pr\": %s,\n  \"nproc\": %s,\n  \"benchmarks\": [\n", pr, nproc; first = 1 }
  {
    # The -N suffix Go appends to benchmark names is GOMAXPROCS; keep it
    # so throughput cells are tagged with the parallelism they ran under.
    # Go omits the suffix entirely when GOMAXPROCS is 1 (a 1-core runner),
    # so no suffix means 1, not unknown.
    name = $1; gmp = "1"
    if (match(name, /-[0-9]+$/)) { gmp = substr(name, RSTART + 1); sub(/-[0-9]+$/, "", name) }
    ns = ""; bytes = ""; allocs = ""; eps = ""; shards = ""; coord = ""; stall = ""
    for (i = 2; i <= NF; i++) {
      if ($(i+1) == "ns/op") ns = $i
      if ($(i+1) == "B/op") bytes = $i
      if ($(i+1) == "allocs/op") allocs = $i
      if ($(i+1) == "events/sec") eps = $i
      if ($(i+1) == "shards") shards = $i
      if ($(i+1) == "coordination_share") coord = $i
      if ($(i+1) == "worker_stall_ns") stall = $i
    }
    if (ns == "") next
    if (!first) printf ",\n"
    first = 0
    printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s", \
      name, ns, (bytes == "" ? "null" : bytes), (allocs == "" ? "null" : allocs)
    if (eps != "") {
      printf ", \"events_per_sec\": %s", eps
      printf ", \"gomaxprocs\": %s", gmp
      if (shards != "") printf ", \"shards\": %.0f", shards
      if (coord != "") printf ", \"coordination_share\": %g", coord
      if (stall != "") printf ", \"worker_stall_ns\": %.0f", stall
    }
    printf "}"
  }
  END { printf "\n  ]\n}\n" }
' >"$out"

echo "wrote $out"
cat "$out"
