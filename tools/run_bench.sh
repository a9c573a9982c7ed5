#!/usr/bin/env bash
# Runs the machine-readable benchmarks and emits JSON next to the chosen
# output directory:
#   BENCH_diagnosis.json — parallel-diagnosis engine (bench_diagnosis_parallel)
#   BENCH_trace_io.json  — trace encoding, decoding and loading (bench_trace_io,
#                          run as three processes: BM_LoadFileHeap alone,
#                          BM_LoadFileMmap alone, then every other row;
#                          their benchmark arrays merged in that order)
#   BENCH_serve.json     — diagnosis service throughput/latency (bench_serve)
#   BENCH_serve_cluster.json — sharded serve cluster: jobs/sec vs shard count
#                          and tail latency under a skewed tenant mix
#                          (bench_serve, BM_Cluster* rows)
#   BENCH_stream.json    — streaming trace ingestion (rose::stream): data-plane
#                          bytes/sec at 1/4 stream sessions with the per-tenant
#                          resident-memory bound asserted, plus the headline
#                          latency pair — oracle-mark -> first progress on an
#                          already-resident window (BM_StreamOracleLatency)
#                          vs shipping the whole dump at oracle time
#                          (BM_DumpSubmitBaseline); the stream row must be
#                          strictly below the baseline (bench_serve,
#                          BM_Stream* + BM_DumpSubmitBaseline rows)
#   BENCH_obs.json       — rose::obs instrumentation cost: bench_obs run from
#                          the default tree (ROSE_OBS=ON) and from a second
#                          -DROSE_OBS=OFF tree, merged with the per-benchmark
#                          overhead percentage (budget: < 3% on the traced
#                          syscall-exit hot path)
#   BENCH_causal.json    — happens-before graph build throughput plus
#                          diagnosis candidates-replayed/wall-clock with
#                          causal analysis ON (arg 1) vs the naive
#                          order-enumeration baseline (arg 0), per
#                          multi-fault catalogue bug (bench_causal)
#
# Usage:
#   tools/run_bench.sh [build_dir] [out_dir]
#
# build_dir defaults to ./build (configured + built already, or this script
# builds the bench targets for you); out_dir defaults to the repo root.
# Extra repetitions / filters can be passed via BENCH_ARGS, e.g.:
#   BENCH_ARGS='--benchmark_repetitions=5' tools/run_bench.sh
#
# Interpreting results:
#  - BENCH_diagnosis: per-arg rows are parallelism levels (1/2/4/8). The
#    reproduced/schedules/sim_runs counters must be identical across levels
#    for the same bug — that is the engine's determinism guarantee; a
#    difference is a bug, not noise. Wall-clock speedup scales with real
#    cores (a 1-core host shows flat times).
#  - BENCH_trace_io: the binary encoded_bytes counter must be <= 50% of the
#    text listing's (BM_SerializeText) on the 1M-event window (the binary
#    container's acceptance bar). The load-path
#    pairs compare the owning loader against the mapped one on the same
#    on-disk dump: BM_LoadFileMmap vs BM_LoadFileHeap is the full-decode
#    comparison (both decode with Trace::ParseBinary; mmap skips only the
#    read() copy), and
#    BM_OpenToFirstEventMmap must be >= 3x faster than BM_OpenToFirstEventHeap
#    — the mapped data plane's acceptance bar, usually orders of magnitude
#    since only the leading frames decode. BM_CanonicalBlobHash is the serve
#    admission cache-key cost: one streamed pass, no Trace construction.
#    Each full-decode load row comes from a fresh process: sharing one,
#    BM_LoadFileMmap read 89-115 ms after BM_LoadFileHeap but 113-131 ms
#    alone on a shared 4-core VM, so the pair compared what the earlier
#    row left behind rather than the two loaders.
#  - BENCH_serve: per-arg rows are concurrent client counts (1/4/16).
#    BM_ServeCold items_per_second at 4 clients must be >= 2x the 1-client
#    row (needs >= 4 real cores); BM_ServeCacheHit must show zero engine
#    runs and sit far above cold throughput. p50_ms/p99_ms counters are
#    submit-to-schedule latency.
#  - BENCH_stream: BM_StreamIngest rows are concurrent stream sessions (1/4);
#    the 4-session row self-asserts peak resident bytes <= sessions x 2 x
#    window (the benchmark errors out otherwise — a bench failure IS the
#    regression signal). BM_StreamOracleLatency vs BM_DumpSubmitBaseline is
#    the paper's always-on claim: both diagnose the same (string-heavy)
#    window cold, but the stream row ships an 18-byte oracle mark where the
#    baseline ships the whole dump — the stream row's Time must be strictly
#    below the baseline's.
#  - BENCH_serve_cluster: per-arg rows of BM_ClusterCold are shard counts
#    (1/2/4) with 8 clients of distinct dumps; the acceptance bar is the
#    2-shard items_per_second >= 1.5x the 1-shard row on this cache-miss
#    workload (needs >= 4 real cores — 2 engine slots per shard).
#    BM_ClusterSkewed routes six of the eight jobs onto one shard by content
#    hash; its p99_ms against BM_ClusterCold/2's shows the tail cost of a
#    skewed tenant.
#  - BENCH_causal: BM_CausalGraphBuild reports graph construction in
#    events/sec. BM_DiagnoseCausal* rows come in pairs — arg 0 is the naive
#    order-enumeration baseline (no causal analysis), arg 1 is the default
#    engine. The acceptance bar is the `schedules` counter (candidates
#    replayed) dropping >= 15% from arg 0 to arg 1 on the multi-fault bugs;
#    the `reproduced` counter must match within each pair.
set -eu

cd "$(dirname "$0")/.."

build_dir="${1:-build}"
out_dir="${2:-.}"
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

if [ ! -d "$build_dir" ]; then
  cmake -S . -B "$build_dir"
fi
cmake --build "$build_dir" --target bench_diagnosis_parallel bench_trace_io bench_serve bench_causal -j "$(nproc)"

"${build_dir}/bench/bench_diagnosis_parallel" \
  --benchmark_out="${out_dir}/BENCH_diagnosis.json" \
  --benchmark_out_format=json \
  ${BENCH_ARGS:-}
echo "wrote ${out_dir}/BENCH_diagnosis.json"

trace_io_parts=()
for filter in '^BM_LoadFileHeap$' '^BM_LoadFileMmap$' '-^BM_LoadFileHeap$|^BM_LoadFileMmap$'; do
  part="${scratch}/trace_io_${#trace_io_parts[@]}.json"
  "${build_dir}/bench/bench_trace_io" \
    --benchmark_filter="$filter" \
    --benchmark_out="$part" \
    --benchmark_out_format=json \
    ${BENCH_ARGS:-}
  trace_io_parts+=("$part")
done
python3 - "${out_dir}/BENCH_trace_io.json" "${trace_io_parts[@]}" <<'EOF'
import json, sys

runs = [json.load(open(path)) for path in sys.argv[2:]]
merged = dict(runs[0])
merged["benchmarks"] = [row for run in runs for row in run["benchmarks"]]
with open(sys.argv[1], "w") as f:
    json.dump(merged, f, indent=1)
EOF
echo "wrote ${out_dir}/BENCH_trace_io.json"

"${build_dir}/bench/bench_serve" \
  --benchmark_filter='BM_Serve' \
  --benchmark_out="${out_dir}/BENCH_serve.json" \
  --benchmark_out_format=json \
  ${BENCH_ARGS:-}
echo "wrote ${out_dir}/BENCH_serve.json"

"${build_dir}/bench/bench_serve" \
  --benchmark_filter='BM_Cluster' \
  --benchmark_out="${out_dir}/BENCH_serve_cluster.json" \
  --benchmark_out_format=json \
  ${BENCH_ARGS:-}
echo "wrote ${out_dir}/BENCH_serve_cluster.json"

"${build_dir}/bench/bench_serve" \
  --benchmark_filter='BM_Stream|BM_DumpSubmitBaseline' \
  --benchmark_out="${out_dir}/BENCH_stream.json" \
  --benchmark_out_format=json \
  ${BENCH_ARGS:-}
echo "wrote ${out_dir}/BENCH_stream.json"

"${build_dir}/bench/bench_causal" \
  --benchmark_out="${out_dir}/BENCH_causal.json" \
  --benchmark_out_format=json \
  ${BENCH_ARGS:-}
echo "wrote ${out_dir}/BENCH_causal.json"

# --- rose::obs overhead: same benchmark binary from an ON and an OFF tree ----
off_dir="${build_dir}-obs-off"
if [ ! -d "$off_dir" ]; then
  cmake -S . -B "$off_dir" -DROSE_OBS=OFF
fi
cmake --build "$build_dir" --target bench_obs -j "$(nproc)"
cmake --build "$off_dir" --target bench_obs -j "$(nproc)"

on_json="${scratch}/obs_on.json"
off_json="${scratch}/obs_off.json"
# Repetitions matter here: the overhead is a difference of two ~140 ns
# measurements, well inside scheduler jitter for a single run. The merge
# below compares the min across repetitions (the classic noise floor).
obs_reps="--benchmark_repetitions=${BENCH_OBS_REPS:-7}"
"${build_dir}/bench/bench_obs" \
  --benchmark_out="$on_json" --benchmark_out_format=json $obs_reps ${BENCH_ARGS:-}
"${off_dir}/bench/bench_obs" \
  --benchmark_out="$off_json" --benchmark_out_format=json $obs_reps ${BENCH_ARGS:-}

# Merge: {"on": <run>, "off": <run>, "overhead": {name: percent}, plus the
# headline "overhead_percent" taken from the traced syscall-exit hot path.
ON_JSON="$on_json" OFF_JSON="$off_json" OUT_JSON="${out_dir}/BENCH_obs.json" \
python3 - <<'EOF'
import json, os

on = json.load(open(os.environ["ON_JSON"]))
off = json.load(open(os.environ["OFF_JSON"]))

def times(run):
    # Min across repetitions: repeated rows share a name, and the minimum is
    # the least-noisy estimate of the true cost on a busy host.
    best = {}
    for b in run["benchmarks"]:
        if b.get("run_type", "iteration") != "iteration":
            continue
        t = b["real_time"]
        name = b["name"]
        if name not in best or t < best[name]:
            best[name] = t
    return best

on_t, off_t = times(on), times(off)
overhead = {}
for name in sorted(on_t.keys() & off_t.keys()):
    if off_t[name] > 0:
        overhead[name] = round(100.0 * (on_t[name] - off_t[name]) / off_t[name], 2)

merged = {
    "on": on,
    "off": off,
    "overhead": overhead,
    # The acceptance number: instrumentation tax on the tracer hot path.
    "overhead_percent": overhead.get("BM_TracedSyscallExit"),
    "budget_percent": 3.0,
}
with open(os.environ["OUT_JSON"], "w") as f:
    json.dump(merged, f, indent=1)
print("obs overhead by benchmark (percent):")
for name, pct in overhead.items():
    print(f"  {name:28s} {pct:+6.2f}%")
EOF
echo "wrote ${out_dir}/BENCH_obs.json"
