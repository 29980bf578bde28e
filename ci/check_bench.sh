#!/usr/bin/env bash
# Shared sanity checks over the emitted BENCH_*.json artifacts, used by
# the CI bench jobs and runnable locally after any bench run:
#
#   ci/check_bench.sh [artifact.json ...]
#
# Every named artifact (default: the committed set) must exist and be
# non-empty and contain no non-finite values (NaN/inf); the full-grid
# report must additionally cover every experiment it declares, every
# sweep report must carry its schema and attest serial/parallel
# equality, and the cluster reports must also record the timed sweep
# replay's events/sec. The failover report must additionally attest its
# three acceptance invariants (R=1 replays plain routing, scatter p99
# monotone in K, kill spike subsides) and record the deterministic
# mid-window kill.
# Trace artifacts (named explicitly when a bench ran with --trace) must
# carry the obs timeline schema (BENCH_trace*.json) — with a drop-free
# steady phase and monotone, non-negative bucket counters — or Chrome
# trace events (TRACE_*.json).
set -euo pipefail

# The experiment count is read from the artifact itself (the harness
# emits "experiment_count" from ExperimentId::all()), so this script
# never drifts from the grid; the floor only guards against an artifact
# that under-declares its own coverage. The floor itself is derived from
# the source of ExperimentId::slug() — one match arm per experiment —
# instead of a literal, so it can never go stale either (simlint rule
# D005 rejects a hardcoded count here).
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
EXPERIMENT_SRC="$ROOT/crates/harness/src/experiment.rs"
if [ ! -f "$EXPERIMENT_SRC" ]; then
  echo "check_bench: cannot derive the experiment floor ($EXPERIMENT_SRC missing)" >&2
  exit 1
fi
MIN_SLUGS="$(grep -cE '=> "[a-z0-9_]+",$' "$EXPERIMENT_SRC")"
if [ "$MIN_SLUGS" -lt 1 ]; then
  echo "check_bench: derived an empty experiment floor from $EXPERIMENT_SRC" >&2
  exit 1
fi
status=0

files=("$@")
if [ "${#files[@]}" -eq 0 ]; then
  files=(
    BENCH_full_grid.json
    BENCH_load_curves.json
    BENCH_tenant_isolation.json
    BENCH_pipeline.json
    BENCH_cluster.json
    BENCH_cluster_failover.json
    SIMLINT.json
  )
fi

for f in "${files[@]}"; do
  if [ ! -s "$f" ]; then
    echo "check_bench: missing or empty artifact $f" >&2
    status=1
    continue
  fi
  if grep -nE '(:|\[|, ) *-?(NaN|inf)' "$f"; then
    echo "check_bench: $f contains non-finite values" >&2
    status=1
  fi
  case "$f" in
    *full_grid*)
      declared="$(sed -n 's/.*"experiment_count": *\([0-9]*\).*/\1/p' "$f" | head -n1)"
      if [ -z "$declared" ]; then
        echo "check_bench: $f declares no experiment_count" >&2
        status=1
        continue
      fi
      if [ "$declared" -lt "$MIN_SLUGS" ]; then
        echo "check_bench: $f declares only $declared experiments (floor $MIN_SLUGS)" >&2
        status=1
      fi
      count="$(grep -c '"slug"' "$f")"
      echo "check_bench: $f covers $count of $declared experiments"
      if [ "$count" -ne "$declared" ]; then
        echo "check_bench: expected $declared experiments in $f" >&2
        status=1
      fi
      ;;
    *BENCH_trace*)
      if ! grep -q '"schema": "isolation-bench/obs/v1"' "$f"; then
        echo "check_bench: $f is not an obs timeline artifact" >&2
        status=1
      fi
      if ! grep -q '"lanes"' "$f"; then
        echo "check_bench: $f carries no per-lane bucket series" >&2
        status=1
      fi
      # Every traced point runs below saturation, so the windowed
      # timeline must show a drop-free steady phase.
      if grep -oE '"drops": *[0-9]+' "$f" | grep -qv '"drops": 0$'; then
        echo "check_bench: $f records drops in the traced steady phase" >&2
        status=1
      fi
      # Counters are event tallies: never negative, each lane's bucket
      # series strictly advancing in time, and (when the event-core
      # counter block is present) pops bounded by pushes.
      if grep -qE '": *-[0-9]' "$f"; then
        echo "check_bench: $f carries a negative counter" >&2
        status=1
      fi
      if ! awk '
        /"lane":/ { prev = -1 }
        {
          line = $0
          while (match(line, /"start_us": *[0-9.]+/)) {
            v = substr(line, RSTART + 12, RLENGTH - 12) + 0
            if (v <= prev) exit 1
            prev = v
            line = substr(line, RSTART + RLENGTH)
          }
        }
      ' "$f"; then
        echo "check_bench: $f bucket series is not monotone in start_us" >&2
        status=1
      fi
      pushes="$(sed -n 's/.*"pushes": *\([0-9]*\).*/\1/p' "$f" | head -n1)"
      pops="$(sed -n 's/.*"pops": *\([0-9]*\).*/\1/p' "$f" | head -n1)"
      if [ -n "$pushes" ] && [ -n "$pops" ] && [ "$pops" -gt "$pushes" ]; then
        echo "check_bench: $f pops ($pops) exceed pushes ($pushes)" >&2
        status=1
      fi
      ;;
    *TRACE_*)
      if ! grep -q '"traceEvents"' "$f"; then
        echo "check_bench: $f is not a Chrome trace-event artifact" >&2
        status=1
      fi
      ;;
    *cluster_failover*)
      if ! grep -q '"schema": "isolation-bench/cluster-failover/v2"' "$f"; then
        echo "check_bench: $f is not a cluster-failover report" >&2
        status=1
      fi
      if ! grep -q '"identical": true' "$f"; then
        echo "check_bench: $f does not attest serial/parallel equality" >&2
        status=1
      fi
      if ! grep -q '"events_per_sec"' "$f"; then
        echo "check_bench: $f records no timed sweep throughput" >&2
        status=1
      fi
      # The bench bin recomputes each acceptance invariant and attests
      # it in the report; a false here means the run should already
      # have exited non-zero.
      for attest in r1_matches_plain scatter_p99_monotone spike_subsides; do
        if ! grep -q "\"$attest\": true" "$f"; then
          echo "check_bench: $f does not attest $attest" >&2
          status=1
        fi
      done
      # The deterministic mid-window kill must actually fire (a
      # positive fail instant somewhere) while the fault-free settings
      # keep the -1 sentinel.
      if ! grep -qE '"fail_at_us": *[0-9]*[1-9]' "$f"; then
        echo "check_bench: $f records no mid-window shard kill" >&2
        status=1
      fi
      if ! grep -q '"fail_at_us": -1' "$f"; then
        echo "check_bench: $f lost the fault-free -1 sentinel" >&2
        status=1
      fi
      ;;
    *cluster*)
      if ! grep -q '"schema": "isolation-bench/cluster/v2"' "$f"; then
        echo "check_bench: $f is not a cluster report" >&2
        status=1
      fi
      if ! grep -q '"identical": true' "$f"; then
        echo "check_bench: $f does not attest serial/parallel equality" >&2
        status=1
      fi
      if ! grep -q '"events_per_sec"' "$f"; then
        echo "check_bench: $f records no timed sweep throughput" >&2
        status=1
      fi
      ;;
    *pipeline*|*tenant_isolation*|*load_curves*)
      case "$f" in
        *pipeline*) schema="isolation-bench/pipeline/v1" ;;
        *tenant_isolation*) schema="isolation-bench/tenant-isolation/v1" ;;
        *) schema="isolation-bench/load-curves/v1" ;;
      esac
      if ! grep -q "\"schema\": \"$schema\"" "$f"; then
        echo "check_bench: $f does not carry the $schema schema" >&2
        status=1
      fi
      if ! grep -q '"identical": true' "$f"; then
        echo "check_bench: $f does not attest serial/parallel equality" >&2
        status=1
      fi
      ;;
    *SIMLINT*|*simlint*)
      if ! grep -q '"schema": "isolation-bench/simlint/v1"' "$f"; then
        echo "check_bench: $f is not a simlint report" >&2
        status=1
      fi
      if ! grep -q '"clean": true' "$f"; then
        echo "check_bench: $f reports unsuppressed determinism findings" >&2
        status=1
      fi
      ;;
  esac
done

if [ "$status" -eq 0 ]; then
  echo "check_bench: ${#files[@]} artifact(s) OK"
fi
exit "$status"
