#!/usr/bin/env bash
# Determinism lint: the simulator's behaviour must be a pure function of
# (seed, schedule). Any wall-clock read or unseeded randomness in src/ breaks
# replayability, so this script fails CI when one appears outside the blessed
# RNG module (src/common/rng.*).
#
# Flagged patterns:
#   std::chrono::system_clock   wall clock
#   time(                       libc wall clock (time, gettimeofday-style)
#   rand(                       libc global RNG (unseeded / hidden state)
#   std::random_device          nondeterministic hardware entropy
#
# Registered as the `determinism_lint` ctest; run directly from anywhere.
#
# Modes:
#   tools/check_determinism.sh            static source lint (the default)
#   tools/check_determinism.sh serve [build_dir]
#       end-to-end serve determinism: dump one production window, submit it
#       through rose_served twice (fresh daemon each time, so nothing is
#       cached) — once as simulated, once loaded back from the saved dump
#       (LoadTraceFile, the one trace-file loader) — and require byte-identical
#       confirmed-schedule YAML, plus a third run through the offline
#       reproduce_bug pipeline, which must produce the same bytes again.
#       Registered as `serve_determinism`.
#   tools/check_determinism.sh --cluster [build_dir]
#       clustered serve determinism (DESIGN.md section 15): route the same
#       submissions through a 2-shard rose_routerd twice — the second run
#       killing shard0 mid-job, so one job fails over to the ring successor —
#       and require byte-identical schedule YAML from both runs, and from a
#       single rose_served daemon for the same (bug, seed). Registered as
#       `cluster_determinism`.
#   tools/check_determinism.sh --stream [build_dir]
#       streaming ingestion determinism (DESIGN.md section 16): capture one
#       production dump, stream it through rose_serve_cli --stream twice
#       (fresh daemon each time), and require byte-identical confirmed-
#       schedule YAML from both streamed runs AND from the classic dump-file
#       submission of the same window — the tentpole byte-identity property,
#       end to end over the wire. Registered as `stream_determinism`.
set -u

cd "$(dirname "$0")/.."

if [ "${1:-lint}" = "serve" ]; then
  build_dir="${2:-build}"
  cli="${build_dir}/examples/rose_serve_cli"
  offline="${build_dir}/examples/reproduce_bug"
  if [ ! -x "$cli" ] || [ ! -x "$offline" ]; then
    echo "serve determinism: build rose_serve_cli and reproduce_bug first ($build_dir)" >&2
    exit 1
  fi
  work="$(mktemp -d)"
  trap 'rm -rf "$work"' EXIT
  bug="${SERVE_DETERMINISM_BUG:-RedisRaft-42}"
  seed="${SERVE_DETERMINISM_SEED:-42}"

  # One dump, served by two independent daemon instances.
  "$cli" "$bug" "$seed" --save-dump "$work/dump" --yaml-out "$work/serve1.yaml" --quiet \
    > /dev/null || { echo "serve determinism: first served run failed" >&2; exit 1; }
  "$cli" "$bug" "$seed" --dump "$work/dump.trc" --profile "$work/dump.profile" \
    --yaml-out "$work/serve2.yaml" --quiet > /dev/null \
    || { echo "serve determinism: second served run failed" >&2; exit 1; }
  if ! cmp -s "$work/serve1.yaml" "$work/serve2.yaml"; then
    echo "serve determinism FAILED: two rose_served runs of the same dump disagree:" >&2
    diff "$work/serve1.yaml" "$work/serve2.yaml" >&2 || true
    exit 1
  fi

  # The offline pipeline must land on the same bytes.
  "$offline" "$bug" "$seed" --schedule-out="$work/offline.yaml" > /dev/null \
    || { echo "serve determinism: offline reproduce_bug failed" >&2; exit 1; }
  if ! cmp -s "$work/serve1.yaml" "$work/offline.yaml"; then
    echo "serve determinism FAILED: served and offline schedules disagree:" >&2
    diff "$work/serve1.yaml" "$work/offline.yaml" >&2 || true
    exit 1
  fi

  echo "serve determinism OK: served twice + offline -> byte-identical schedule YAML."
  exit 0
fi

if [ "${1:-lint}" = "--cluster" ] || [ "${1:-lint}" = "cluster" ]; then
  build_dir="${2:-build}"
  routerd="${build_dir}/examples/rose_routerd"
  cli="${build_dir}/examples/rose_serve_cli"
  if [ ! -x "$routerd" ] || [ ! -x "$cli" ]; then
    echo "cluster determinism: build rose_routerd and rose_serve_cli first ($build_dir)" >&2
    exit 1
  fi
  work="$(mktemp -d)"
  trap 'rm -rf "$work"' EXIT
  bugs="${CLUSTER_DETERMINISM_BUGS:-RedisRaft-42 RedisRaft-43}"
  seed="${SERVE_DETERMINISM_SEED:-42}"

  # Run 1: a clean 2-shard cluster. Run 2: the same submissions, but shard0
  # is crashed as soon as it starts a job — failover must be invisible in
  # the output bytes. (Journal + follower exercise replication too.)
  # shellcheck disable=SC2086
  "$routerd" --shards 2 --seed "$seed" --journal "$work/run1.rjnl" \
    --out "$work/run1" $bugs > /dev/null \
    || { echo "cluster determinism: clean cluster run failed" >&2; exit 1; }
  # shellcheck disable=SC2086
  "$routerd" --shards 2 --seed "$seed" --kill-shard shard0 \
    --journal "$work/run2.rjnl" --follower "$work/run2-follower.rjnl" \
    --out "$work/run2" $bugs > /dev/null \
    || { echo "cluster determinism: kill-shard cluster run failed" >&2; exit 1; }
  for bug in $bugs; do
    if ! cmp -s "$work/run1/$bug-$seed.yaml" "$work/run2/$bug-$seed.yaml"; then
      echo "cluster determinism FAILED: $bug schedule differs after failover:" >&2
      diff "$work/run1/$bug-$seed.yaml" "$work/run2/$bug-$seed.yaml" >&2 || true
      exit 1
    fi
  done
  if ! cmp -s "$work/run2.rjnl" "$work/run2-follower.rjnl"; then
    echo "cluster determinism FAILED: follower journal is not byte-identical" >&2
    exit 1
  fi

  # A single rose_served daemon must land on the same bytes per bug.
  for bug in $bugs; do
    "$cli" "$bug" "$seed" --yaml-out "$work/single-$bug.yaml" --quiet > /dev/null \
      || { echo "cluster determinism: single-daemon run of $bug failed" >&2; exit 1; }
    if ! cmp -s "$work/run1/$bug-$seed.yaml" "$work/single-$bug.yaml"; then
      echo "cluster determinism FAILED: clustered and single-daemon $bug disagree:" >&2
      diff "$work/run1/$bug-$seed.yaml" "$work/single-$bug.yaml" >&2 || true
      exit 1
    fi
  done
  echo "cluster determinism OK: 2-shard cluster twice (one mid-job kill) +" \
       "single daemon -> byte-identical schedule YAML; follower journal matches."
  exit 0
fi

if [ "${1:-lint}" = "--stream" ] || [ "${1:-lint}" = "stream" ]; then
  build_dir="${2:-build}"
  cli="${build_dir}/examples/rose_serve_cli"
  if [ ! -x "$cli" ]; then
    echo "stream determinism: build rose_serve_cli first ($build_dir)" >&2
    exit 1
  fi
  work="$(mktemp -d)"
  trap 'rm -rf "$work"' EXIT
  bug="${SERVE_DETERMINISM_BUG:-RedisRaft-42}"
  seed="${SERVE_DETERMINISM_SEED:-42}"

  # Capture one dump, then diagnose the same window three ways — streamed
  # twice (independent daemons) and submitted classically once.
  "$cli" "$bug" "$seed" --save-dump "$work/dump" --quiet > /dev/null \
    || { echo "stream determinism: dump capture failed" >&2; exit 1; }
  for run in 1 2; do
    "$cli" "$bug" "$seed" --dump "$work/dump.trc" --profile "$work/dump.profile" \
      --stream --yaml-out "$work/stream$run.yaml" --quiet > /dev/null \
      || { echo "stream determinism: streamed run $run failed" >&2; exit 1; }
  done
  if ! cmp -s "$work/stream1.yaml" "$work/stream2.yaml"; then
    echo "stream determinism FAILED: two streamed runs of the same dump disagree:" >&2
    diff "$work/stream1.yaml" "$work/stream2.yaml" >&2 || true
    exit 1
  fi
  "$cli" "$bug" "$seed" --dump "$work/dump.trc" --profile "$work/dump.profile" \
    --yaml-out "$work/submit.yaml" --quiet > /dev/null \
    || { echo "stream determinism: classic submit run failed" >&2; exit 1; }
  if ! cmp -s "$work/stream1.yaml" "$work/submit.yaml"; then
    echo "stream determinism FAILED: streamed and dump-submitted schedules disagree:" >&2
    diff "$work/stream1.yaml" "$work/submit.yaml" >&2 || true
    exit 1
  fi
  echo "stream determinism OK: streamed twice + classic submit -> byte-identical" \
       "schedule YAML."
  exit 0
fi

# A preceding [A-Za-z0-9_] means it's a different identifier (at_time(,
# virtual_time( ...), so anchor on a non-identifier char or line start.
pattern='(^|[^A-Za-z0-9_])(std::chrono::system_clock|time[[:space:]]*\(|rand[[:space:]]*\(|std::random_device)'

violations=$(grep -rnE "$pattern" src \
  --include='*.cc' --include='*.h' \
  | grep -v '^src/common/rng\.' || true)

if [ -n "$violations" ]; then
  echo "determinism lint FAILED: nondeterminism outside src/common/rng.*:" >&2
  echo "$violations" >&2
  echo "route all randomness through rose::Rng and all time through SimTime." >&2
  exit 1
fi

echo "determinism lint OK: src/ is free of wall-clock and unseeded randomness."
