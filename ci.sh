#!/usr/bin/env bash
# Local CI gate: build, test, lint, format. Run from the repo root;
# everything must pass before a change lands (see CONTRIBUTING.md).
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
cargo build --release -p mpx-bench
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check

# Fault-matrix smoke: each canned degradation scenario must complete with
# intact data (mpx exits nonzero otherwise) and must actually exercise the
# recovery loop (nonzero retry stats).
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
for scenario in degrade flap kill; do
  ./target/release/mpx fault-plan --topo beluga --paths 3_GPUs --size 64M \
    --scenario "$scenario" > "$tmp/$scenario.json"
  out="$(./target/release/mpx resilient --topo beluga --paths 3_GPUs --size 64M \
    --faults "$tmp/$scenario.json")"
  echo "$out"
  case "$out" in
    *"retries=0"*) echo "fault-matrix: $scenario did not trigger recovery" >&2; exit 1 ;;
    *"faults_fired=0"*) echo "fault-matrix: $scenario fault never fired" >&2; exit 1 ;;
  esac
done
# The same canned fault plans once more through the partitioned parallel
# engine: `mpx partition` replays each plan on a multi-component cluster
# scenario serial AND parallel and exits nonzero unless the two runs are
# bit-identical (and the faults actually fired).
for scenario in degrade flap kill; do
  out="$(./target/release/mpx partition --faults "$tmp/$scenario.json")"
  echo "$out"
  case "$out" in
    *"faults=0"*) echo "fault-matrix: $scenario never fired in the parallel engine" >&2; exit 1 ;;
    *"bit-identical"*) ;;
    *) echo "fault-matrix: $scenario parallel run not verified" >&2; exit 1 ;;
  esac
done
echo "fault-matrix smoke: ok"

# Trace-export smoke: `mpx trace` must exit cleanly, its trace.json must
# parse as JSON, and every instrumented phase must contribute at least
# one event (spans/instants carry the phase label in their `cat` field).
./target/release/mpx trace --topo beluga --size 64M \
  --trace-out "$tmp/trace.json" --metrics-out "$tmp/metrics.json"
python3 -c "import json, sys; json.load(open(sys.argv[1])); json.load(open(sys.argv[2]))" \
  "$tmp/trace.json" "$tmp/metrics.json"
for phase in plan probe transfer chunk-leg recovery collective fault tune graph.capture graph.replay health hedge broker partition; do
  if ! grep -q "\"cat\": \"$phase\"" "$tmp/trace.json"; then
    echo "trace smoke: no $phase events in trace.json" >&2; exit 1
  fi
done
echo "trace-export smoke: ok"

# Planning-throughput smoke: a short bench_transport run that fails on a
# zero cache-hit rate, on falling far below the committed after numbers
# in results/BENCH_transport.json, or on dipping under the committed
# mutex-baseline throughput. Thresholds are generous — this catches a
# concurrency regression, not run-to-run noise. The same quick run gates
# the compiled-graph replay path: zero replays or a replay slowdown
# versus the interpreted pipeline fails the run.
./target/release/bench_transport --quick
echo "bench_transport smoke: ok"

# Parallel-engine smoke: bench_sim --quick proves a cluster scenario with
# a fault storm bit-identical between serial and 8-worker parallel
# execution, then requires the parallel engine to at least match the
# serial engine's events/sec on the 100k-flow cell. Never rewrites
# results/BENCH_sim.json (full runs do that).
./target/release/bench_sim --quick
echo "bench_sim smoke: ok"

# Chaos-soak smoke: two fixed seeds of randomized degrade/flap/kill over
# concurrent resilient, plain/replayed, and hedged PUTs. Exits nonzero on
# data corruption, unbounded recovery (virtual-time ceiling), an
# unbalanced breaker ledger, a graph replay served while the pair's
# breaker was open, or a degraded hedged-PUT p99 above 2x the healthy
# p99. Never rewrites results/BENCH_chaos.json (full runs do that).
# With MPX_DUMP_DIR set, the soak's anomaly engine also writes each
# black-box dump to disk; the storm must leave at least one breaker dump
# whose cause carries the breaker's reason, and every dump must render
# through `mpx report`.
MPX_DUMP_DIR="$tmp/dumps" ./target/release/chaos_soak --quick
dump_count="$(find "$tmp/dumps" -name 'dump-*.json' | wc -l)"
if [ "$dump_count" -eq 0 ]; then
  echo "chaos-soak smoke: storm produced no black-box dump" >&2; exit 1
fi
if ! grep -l '"trigger": "breaker.trip"' "$tmp/dumps"/seed-*/dump-*.json \
    | xargs grep -q '"cause": "why='; then
  echo "chaos-soak smoke: no breaker dump carries its trigger cause" >&2; exit 1
fi
for dump in "$tmp/dumps"/seed-*/dump-*.json; do
  ./target/release/mpx report --dump "$dump" > /dev/null
done
echo "chaos-soak smoke: ok ($dump_count black-box dumps rendered)"

# OpenMetrics smoke: the exposition must carry histogram quantiles and
# pass a line-format check (TYPE lines, sane sample lines, EOF last).
./target/release/mpx metrics --topo beluga --size 8M --openmetrics > "$tmp/metrics.om"
python3 - "$tmp/metrics.om" <<'PY'
import re, sys
lines = open(sys.argv[1]).read().splitlines()
assert lines, "empty exposition"
assert lines[-1] == "# EOF", "exposition must end with # EOF"
sample = re.compile(r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+-]+$')
types = 0
for ln in lines[:-1]:
    if ln.startswith("# TYPE "):
        types += 1
        continue
    assert sample.match(ln), f"bad OpenMetrics line: {ln!r}"
assert types > 0, "no # TYPE lines"
text = "\n".join(lines)
assert '_bucket{le="' in text, "no histogram buckets"
assert '+Inf' in text, "no +Inf bucket"
PY
echo "openmetrics smoke: ok"

# Broker-saturation smoke: a short bench_broker run driving the multi-tenant
# admission broker at 2x fabric capacity. Exits nonzero if overload sheds
# nothing (admission control inert), if the admitted p99 sojourn exceeds 2x
# the unloaded p99 (queues growing without bound), if per-tenant goodput
# drifts off the configured 3:2:1 weights, or if the accounting invariant
# (submitted = admitted + shed, admitted all terminal) breaks. Never
# rewrites results/BENCH_broker.json (full runs do that).
./target/release/bench_broker --quick
echo "bench_broker smoke: ok"

# Benchmark smoke: perfbench's own tests, then every workload's seed-1
# sim_digest against its pinned value. The digest hashes each prefix op's
# simulated completion time and bytes and repeats exactly for a seed
# whatever the run length, so a change that only speeds up the program
# must leave it untouched. A pin changes only through a deliberate edit
# here, noted in CHANGES.md.
cargo test -q --offline --manifest-path perfbench/Cargo.toml
for pin in put_small=a6c819149fddee90 put_window=51abc206cb902b4c \
    broker_overload=f64e6083e87d34f6 fault_storm=f252942abd3c7ba2; do
  workload="${pin%%=*}"
  want="${pin#*=}"
  got="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 1 --trace 0 | python3 -c '
import json, sys
for line in sys.stdin:
    obj = json.loads(line)
    if "sim_digest" in obj:
        print(obj["sim_digest"]["value"])
')"
  if [ "$got" != "$want" ]; then
    echo "perfbench: $workload sim_digest $got, pinned $want" >&2; exit 1
  fi
  echo "perfbench: $workload sim_digest $got (pinned)"
done
# Recovery-accounting pin: a refactor can keep every simulated time and
# still change how recovery is counted, which the digest alone would not
# catch. The traced seed-1 fault_storm run reports the recovery loop's,
# the breakers' and the hedging layer's counters over its 60k-op prefix
# (which outlasts --seconds 1 here, so the escalation count covers the
# same ops); each must equal its pin. A pin changes only through a
# deliberate edit here, noted in CHANGES.md.
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload fault_storm --seed 1 --seconds 1 --trace 1 | python3 -c '
import json, sys
want = {
    "ucx.recover.retries": 835, "ucx.recover.replans": 840,
    "ucx.recover.timeouts": 835, "ucx.health.trips": 81,
    "ucx.health.hedges": 958, "ucx.health.hedge_wins": 893,
    "loop.hedge_escalations": 170,
}
got = {}
for line in sys.stdin:
    obj = json.loads(line)
    for name, m in obj.get("metrics", {}).items():
        got[name] = m["value"]
    if "loop" in obj:
        got["loop.hedge_escalations"] = obj["loop"]["hedge_escalations"]
bad = [f"{k} {got.get(k)}, pinned {v}" for k, v in want.items() if got.get(k) != v]
if bad:
    sys.exit("perfbench: fault_storm recovery counters moved: " + "; ".join(bad))
print("perfbench: fault_storm recovery counters (pinned)")
'
echo "perfbench smoke: ok"
