#!/usr/bin/env bash
# Verification sweep: install, tests, benchmarks, examples.
# Mirrors what EXPERIMENTS.md and test_output.txt/bench_output.txt record.
#
# By default runs the fast tier only (tests not marked `slow`, no
# benchmarks); pass --all for the full sweep the release records use.
set -euo pipefail
cd "$(dirname "$0")/.."

RUN_ALL=0
for arg in "$@"; do
    case "${arg}" in
        --all) RUN_ALL=1 ;;
        *) echo "usage: $0 [--all]" >&2; exit 2 ;;
    esac
done

echo "== install =="
pip install -e . 2>/dev/null || python setup.py develop

if [[ "${RUN_ALL}" -eq 1 ]]; then
    echo "== tests (full) =="
    python -m pytest tests/

    echo "== benchmarks =="
    python -m pytest benchmarks/ --benchmark-only

    echo "== examples =="
    for example in examples/*.py; do
        echo "-- ${example}"
        python "${example}" > /dev/null
    done
else
    echo "== tests (fast tier; use --all for the full sweep) =="
    python -m pytest tests/ -m "not slow" --durations=15
fi

echo "== end-to-end benchmark tests (smoke run of every workload) =="
python -m pytest benchmarks/e2e -q

echo "== obs smoke (traced analysis + explain CLI) =="
OBS_TRACE="$(mktemp /tmp/repro_obs_smoke.XXXXXX.jsonl)"
trap 'rm -f "${OBS_TRACE}"' EXIT
REPRO_TRACE="${OBS_TRACE}" python - <<'PY'
from repro.analysis import nonempty_pl
from repro.workloads.scaling import pl_counter_sws

answer = nonempty_pl(pl_counter_sws(4))
assert answer.is_yes
assert answer.provenance is not None, "tracing enabled but no provenance"
assert answer.provenance.counters["vectors_explored"] > 0
PY
EXPLAIN_OUT="$(python -m repro.obs explain "${OBS_TRACE}")"
printf '%s\n' "${EXPLAIN_OUT}"
for header in "where the time went" "how much work was done" \
    "whether and why a budget tripped"; do
    grep -q "== ${header} ==" <<< "${EXPLAIN_OUT}"
done

echo "== guard smoke (fault injection + guard map CLI) =="
python - <<'PY'
from repro.analysis import nonempty_pl
from repro.guard.inject import injected
from repro.workloads.scaling import pl_counter_sws

sws = pl_counter_sws(4)
assert nonempty_pl(sws).is_yes
with injected("afa.search_witness", limit="deadline") as plan:
    answer = nonempty_pl(sws)
assert plan.fired, "injection never reached the search checkpoint"
assert answer.is_unknown, answer
assert answer.trip.limit == "deadline"
PY
python -m repro.obs guard > /dev/null

echo "== serve smoke (in-process and 2-worker batch + cache hits on resubmission) =="
python - <<'PY'
from repro.serve import JobSpec, SolverService
from repro.workloads.scaling import pl_counter_sws

specs = [
    JobSpec("nonempty_pl", (pl_counter_sws(n),), label=f"counter-{n}-{i}")
    for i in (0, 1)
    for n in (6, 7, 8, 9)
]
verdicts = {}
for service in (SolverService(), SolverService(workers=2)):
    with service:
        cold = service.run_batch(specs)
        verdicts[service.workers] = [a.verdict.value for a in cold]
        assert service.jobs_executed == 4, service.stats()  # dedup
        warm = service.run_batch(specs)
        assert all(a.is_yes for a in warm)
        assert service.cache.stats.hits >= 8, service.stats()
        assert service.jobs_executed == 4, service.stats()  # all cached
assert verdicts[0] == verdicts[2] == ["yes"] * 8, verdicts
PY
python -m repro.serve procedures > /dev/null

echo "== store smoke (write, reopen cold, warm-start hit) =="
STORE_DIR="$(mktemp -d /tmp/repro_store_smoke.XXXXXX)"
trap 'rm -f "${OBS_TRACE}"; rm -rf "${STORE_DIR}"' EXIT
REPRO_STORE_SMOKE_DIR="${STORE_DIR}" python - <<'PY'
import os

from repro.serve import JobSpec, SolverService
from repro.workloads.scaling import pl_counter_sws

cache_dir = os.environ["REPRO_STORE_SMOKE_DIR"]
specs = [JobSpec("nonempty_pl", (pl_counter_sws(8),))]

# Write: a service with a store-backed disk tier solves once.
with SolverService(cache_dir=cache_dir) as service:
    assert service.run_batch(specs)[0].is_yes
    stats = service.cache.store.stats()
    assert stats["journal_mode"] == "wal", stats
    assert stats["answers"] == 1, stats

# Reopen cold: a new service (empty memory tier) warm-starts from the
# store.
with SolverService(cache_dir=cache_dir) as service:
    assert service.cache.stats.disk_loaded == 1
    assert service.run_batch(specs)[0].is_yes
    assert service.jobs_executed == 0, service.stats()  # answer reused
    assert service.cache.stats.hits >= 1
PY
python -m repro.serve store stats "${STORE_DIR}" > /dev/null
python -m repro.serve store vacuum "${STORE_DIR}" > /dev/null

echo "== chaos smoke (faulted soak + dead-letter CLI round-trip) =="
CHAOS_DIR="$(mktemp -d /tmp/repro_chaos_smoke.XXXXXX)"
trap 'rm -f "${OBS_TRACE}"; rm -rf "${STORE_DIR}" "${CHAOS_DIR}"' EXIT
REPRO_METRICS="${CHAOS_DIR}/chaos-metrics.jsonl" python - <<'PY'
from repro.analysis import nonempty_pl
from repro.guard import Budget, inject
from repro.serve import RetryPolicy, SolverService
from repro.workloads.scaling import serve_traffic_burst

waves = serve_traffic_burst(
    n_jobs=120, distinct=5, seed=7, min_bits=4, waves=3, burst_every=2,
    burst_factor=3,
)
truth = {}
for wave in waves:
    for _, args in wave:
        if id(args[0]) not in truth:
            truth[id(args[0])] = nonempty_pl(args[0]).verdict.value

# Rates tuned so this exact seed provably loses a worker: some
# first-attempt job carries a kill fate, and either it runs (and dies)
# or an earlier kill stranded it.  Retry counts stay timing-dependent
# (redispatch shifts attempt numbers), so the retry ladder is asserted
# on the deterministic starved run below instead.
spec = inject.ChaosSpec(
    kill_rate=0.4, trip_rate=0.7, store_error_rate=0.3, seed=7
)
budget = Budget(step_budget=200_000)
resolved = dead = contradictions = 0
with inject.chaos(spec):
    with SolverService(
        workers=2,
        retry_policy=RetryPolicy(
            max_attempts=3, budget_multiplier=4.0, backoff_base_s=0.01,
            backoff_cap_s=0.1,
        ),
    ) as service:
        for wave in waves:
            handles = [
                (service.submit(name, *args, budget=budget), args)
                for name, args in wave
            ]
            service.drain()
            for handle, args in handles:
                assert handle.done(), "handle left unresolved"
                verdict = handle.result(timeout=0).verdict.value
                resolved += 1
                if handle.dead_lettered:
                    dead += 1
                elif verdict != "unknown" and verdict != truth[id(args[0])]:
                    contradictions += 1
        lost = service.jobs_worker_lost
        retried = service.jobs_retried
assert resolved == 120, f"{resolved} of 120 jobs resolved"
assert contradictions == 0, f"{contradictions} decided answers wrong"
assert lost >= 1, "chaos smoke never lost a worker"
print(
    f"chaos smoke: 120 jobs resolved, {dead} dead-lettered, "
    f"{lost} workers lost, {retried} retried, 0 contradictions"
)
PY
cat > "${CHAOS_DIR}/starved.jsonl" <<'JOBS'
{"procedure": "nonempty_pl", "instances": [{"factory": "repro.workloads.scaling:pl_counter_sws", "args": [12]}], "budget": {"step_budget": 4}, "label": "starved-12"}
JOBS
# A hopelessly starved job must dead-letter and fail the run...
if python -m repro.serve run "${CHAOS_DIR}/starved.jsonl" \
    --cache-dir "${CHAOS_DIR}/cache" --retries 2 --budget-multiplier 2 \
    --out /dev/null 2> /dev/null; then
    echo "expected the starved run to exit nonzero" >&2
    exit 1
fi
python -m repro.serve dlq list "${CHAOS_DIR}/cache" | grep -q starved-12
# The retry ladder provably ran: the record shows both attempts.
python -m repro.serve dlq list "${CHAOS_DIR}/cache" --json \
    | grep -q '"attempts": 2'
# ...and recover through dlq retry with real escalation room.
python -m repro.serve dlq retry "${CHAOS_DIR}/cache" \
    --retries 3 --budget-multiplier 32 > /dev/null
python -m repro.serve dlq list "${CHAOS_DIR}/cache" 2>&1 | grep -q "dlq: empty"

echo "== metrics smoke (exported snapshot + dashboard frame) =="
METRICS_DIR="$(mktemp -d /tmp/repro_metrics_smoke.XXXXXX)"
trap 'rm -f "${OBS_TRACE}"; rm -rf "${STORE_DIR}" "${CHAOS_DIR}" "${METRICS_DIR}"' EXIT
cat > "${METRICS_DIR}/jobs.jsonl" <<'JOBS'
{"procedure": "nonempty_pl", "instances": [{"factory": "repro.workloads.scaling:pl_counter_sws", "args": [6]}], "label": "c6"}
{"procedure": "nonempty_pl", "instances": [{"factory": "repro.workloads.scaling:pl_counter_sws", "args": [7]}], "label": "c7"}
{"procedure": "nonempty_pl", "instances": [{"factory": "repro.workloads.scaling:pl_counter_sws", "args": [8]}], "label": "c8"}
{"procedure": "nonempty_pl", "instances": [{"factory": "repro.workloads.scaling:pl_counter_sws", "args": [9]}], "label": "c9"}
JOBS
python -m repro.serve run "${METRICS_DIR}/jobs.jsonl" \
    --workers 2 --repeat 2 --metrics "${METRICS_DIR}/metrics.jsonl" \
    --out /dev/null 2> /dev/null
REPRO_METRICS_SMOKE="${METRICS_DIR}/metrics.jsonl" python - <<'PY'
import os

from repro import metrics

snap = metrics.last_snapshot(os.environ["REPRO_METRICS_SMOKE"])
assert snap is not None, "no snapshot exported"
assert snap["v"] == metrics.METRICS_SCHEMA_VERSION
counters = snap["counters"]
assert metrics.counter_total(counters, "serve.jobs.executed") == 4, counters
latency = snap["histograms"]["serve.job.latency_s{procedure=nonempty_pl}"]
assert latency["count"] == 4, latency  # worker samples merged up
rate = metrics.cache_hit_rate(counters)
assert rate is not None and rate >= 0.4, counters  # warm repeat round
PY
python -m repro.serve top "${METRICS_DIR}/metrics.jsonl" --once > /dev/null

echo "== delta smoke (incremental re-check CLI + serve --repeat sessions) =="
DELTA_DIR="$(mktemp -d /tmp/repro_delta_smoke.XXXXXX)"
trap 'rm -f "${OBS_TRACE}"; rm -rf "${STORE_DIR}" "${CHAOS_DIR}" "${METRICS_DIR}" "${DELTA_DIR}"' EXIT
# Replay an edit script through one session: every verdict is
# cross-checked against a from-scratch solve, and at least 3 re-checks
# must avoid the full path.
python -m repro.delta replay \
    --trace repro.workloads.editing:menu_editing_trace \
    --compare --require-warm 3 > /dev/null
# A long session: 1,500 local edits stay local and never overflow the
# stack (each engine patches against its root).
python -m repro.delta replay --trace repro.workloads.editing:menu_editing_trace --arg 8 --arg 4 --arg '"abcd"' --arg 1500 --require-warm 1400 > /dev/null
python -m repro.delta diff \
    --trace repro.workloads.editing:growing_trace --json \
    | grep -q '"alphabet_changed": true'
cat > "${DELTA_DIR}/jobs.jsonl" <<'JOBS'
{"procedure": "nonempty_pl", "instances": [{"factory": "repro.workloads.editing:edited_menu", "kwargs": {"step": "@round", "edits": 4}}], "label": "edited-menu"}
{"procedure": "nonempty_pl", "instances": [{"factory": "repro.workloads.scaling:pl_counter_sws", "args": [5]}], "label": "static-counter"}
JOBS
# Repeated rounds reuse one Session per job line: the "@round" spec
# re-checks incrementally, the static one stays cached.
python -m repro.serve run "${DELTA_DIR}/jobs.jsonl" --repeat 3 \
    --metrics "${DELTA_DIR}/delta-metrics.jsonl" --out /dev/null \
    2> "${DELTA_DIR}/run.err"
grep -q "delta: 2 session(s), 4 recheck(s)" "${DELTA_DIR}/run.err"
grep -q "2 cached" "${DELTA_DIR}/run.err"

echo "== perf tripwire (obs check vs committed baselines) =="
python -m repro.obs check --baseline benchmarks/baselines.json \
    --metrics "${METRICS_DIR}/metrics.jsonl" --trace 'BENCH_*.trace.jsonl'
# Second pass with the chaos-smoke snapshot: the resilience bounds
# (serve.retry.*, serve.dlq.*) only have values there.
python -m repro.obs check --baseline benchmarks/baselines.json \
    --metrics "${CHAOS_DIR}/chaos-metrics.jsonl" --trace 'BENCH_*.trace.jsonl'
# Third pass with the delta-smoke snapshot: the incremental re-check
# bounds (delta.*) only have values there.
python -m repro.obs check --baseline benchmarks/baselines.json \
    --metrics "${DELTA_DIR}/delta-metrics.jsonl" --trace 'BENCH_*.trace.jsonl'
EXPLAIN_OUT="$(python -m repro.obs explain 'BENCH_*.trace.jsonl' --limit 8)"
for header in "where the time went" "how much work was done" \
    "whether and why a budget tripped"; do
    grep -q "== ${header} ==" <<< "${EXPLAIN_OUT}"
done

echo "== introspection smoke (progress + explain) =="
INTROSPECT_DIR="$(mktemp -d /tmp/repro_introspect_smoke.XXXXXX)"
trap 'rm -f "${OBS_TRACE}"; rm -rf "${STORE_DIR}" "${CHAOS_DIR}" "${METRICS_DIR}" "${DELTA_DIR}" "${INTROSPECT_DIR}"' EXIT
REPRO_INTROSPECT_DIR="${INTROSPECT_DIR}" python - <<'PY'
import json
import os

from repro import obs
from repro.analysis import nonempty_pl
from repro.guard import Budget
from repro.obs import progress
from repro.workloads.scaling import pl_counter_sws

trace = os.path.join(os.environ["REPRO_INTROSPECT_DIR"], "introspect.trace.jsonl")
obs.configure(path=trace, mode="w")
progress.configure(enabled=True, interval_s=0.01)
try:
    answer = nonempty_pl(pl_counter_sws(15), guard=Budget(deadline_s=120))
finally:
    progress.configure(enabled=False)
    obs.configure(enabled=False)
assert answer.is_yes, answer

events = [json.loads(line) for line in open(trace)]
prog = [
    e for e in events
    if e.get("event") == "progress" and e["site"].startswith("afa.")
]
assert prog, "no progress events from the AFA search"
visited = [e["visited"] for e in prog if "visited" in e]
assert visited == sorted(visited), f"visited not monotone: {visited}"
PY
python -m repro.obs explain "${INTROSPECT_DIR}/introspect.trace.jsonl" \
    | grep -q "dominant phase"

echo "== telemetry-off guard (disabled-mode solves stay in bounds) =="
# With progress telemetry OFF (the default), fresh guarded solves must
# still clear the committed perf tripwire bounds — the telemetry hooks
# may not tax the disabled path.
REPRO_INTROSPECT_DIR="${INTROSPECT_DIR}" python - <<'PY'
import os

from repro import obs
from repro.analysis import nonempty_pl, nonempty_pl_nr_sat
from repro.obs import progress
from repro.reductions.sat_to_sws import clauses_from_tuples, cnf_to_sws
from repro.workloads.scaling import pl_counter_sws, random_3cnf

assert not progress.is_enabled()
trace = os.path.join(os.environ["REPRO_INTROSPECT_DIR"], "overhead.trace.jsonl")
obs.configure(path=trace, mode="w")
try:
    for bits in (8, 9, 10):
        assert nonempty_pl(pl_counter_sws(bits)).is_yes
    for seed in (0, 1):
        sws = cnf_to_sws(clauses_from_tuples(random_3cnf(seed, 8, 24)))
        nonempty_pl_nr_sat(sws)
finally:
    obs.configure(enabled=False)
PY
python -m repro.obs check --baseline benchmarks/baselines.json \
    --trace "${INTROSPECT_DIR}/overhead.trace.jsonl"

echo "all green"
