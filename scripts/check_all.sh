#!/usr/bin/env bash
# Verification sweep: tests, end-to-end benchmark tests, and the smokes
# that drive each runtime surface.  CI runs this script as its one step.
#
# By default runs the fast tier only (tests not marked `slow`, no
# benchmarks); pass --all for the full sweep the release records use.
# Runs from the checkout with src/ on PYTHONPATH, so nothing is
# installed.  Extra pytest flags go through PYTEST_ADDOPTS.
set -euo pipefail
cd "$(dirname "$0")/.."

RUN_ALL=0
for arg in "$@"; do
    case "${arg}" in
        --all) RUN_ALL=1 ;;
        *) echo "usage: $0 [--all]" >&2; exit 2 ;;
    esac
done

export PYTHONPATH="${PWD}/src${PYTHONPATH:+:${PYTHONPATH}}"
WORK="$(mktemp -d /tmp/repro_check_all.XXXXXX)"
trap 'rm -rf "${WORK}"' EXIT

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
# layers.py wraps engine entry points by name (to_afa,
# to_afa_incremental, _compile_searchers, generic_search), so engine
# changes must keep the traced benchmark runs working.
python -m pytest benchmarks/e2e -q

echo "== obs smoke (traced analysis + explain CLI) =="
REPRO_TRACE="${WORK}/obs-smoke.trace.jsonl" python - <<'PY'
from repro.analysis import nonempty_pl
from repro.workloads.scaling import pl_counter_sws

answer = nonempty_pl(pl_counter_sws(4))
assert answer.is_yes
assert answer.provenance is not None, "tracing enabled but no provenance"
assert answer.provenance.counters["vectors_explored"] > 0
PY
EXPLAIN_OUT="$(python -m repro.obs explain "${WORK}/obs-smoke.trace.jsonl")"
printf '%s\n' "${EXPLAIN_OUT}"
for header in "where the time went" "how much work was done" \
    "whether and why a budget tripped"; do
    grep -q "== ${header} ==" <<< "${EXPLAIN_OUT}"
done

echo "== explain smoke (committed benchmark traces) =="
EXPLAIN_OUT="$(python -m repro.obs explain 'BENCH_*.trace.jsonl' --limit 8)"
for header in "where the time went" "how much work was done" \
    "whether and why a budget tripped"; do
    grep -q "== ${header} ==" <<< "${EXPLAIN_OUT}"
done

echo "== guard smoke (fault injection on Table 1 and Table 2 + guard map CLI) =="
python - <<'PY'
from repro.analysis import nonempty_pl
from repro.guard.inject import injected
from repro.mediator import compose_mdtb_pl
from repro.workloads.pl_services import HASH, union_word_service, word_service
from repro.workloads.scaling import pl_counter_sws

sws = pl_counter_sws(4)
assert nonempty_pl(sws).is_yes
with injected("afa.search_witness", limit="deadline") as plan:
    answer = nonempty_pl(sws)
assert plan.fired, "injection never reached the search checkpoint"
assert answer.is_unknown, answer
assert answer.trip.limit == "deadline"

components = {
    "X": word_service(["a", HASH], ["a", "b"], "X"),
    "Y": word_service(["b", HASH], ["a", "b"], "Y"),
}
goal = union_word_service([["a", HASH, "b", HASH]], ["a", "b"])
assert compose_mdtb_pl(goal, components, invocation_bound=1).is_yes
with injected("compose_mdtb_pl", limit="deadline") as plan:
    answer = compose_mdtb_pl(goal, components, invocation_bound=1)
assert plan.fired, "injection never reached the composition checkpoint"
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
python - "${WORK}/store" <<'PY'
import sys

from repro.serve import JobSpec, SolverService
from repro.workloads.scaling import pl_counter_sws

cache_dir = sys.argv[1]
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
python -m repro.serve store stats "${WORK}/store" > /dev/null
python -m repro.serve store vacuum "${WORK}/store" > /dev/null

echo "== chaos smoke (faulted soak + dead-letter CLI round-trip) =="
mkdir "${WORK}/chaos"
python - <<'PY'
from repro import metrics
from repro.analysis import nonempty_pl
from repro.guard import Budget, inject
from repro.serve import RetryPolicy, SolverService
from repro.workloads.scaling import serve_traffic_burst

metrics.configure(enabled=True)
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
# (redispatch shifts attempt numbers), so only "at least one retry" is
# asserted here; the retry ladder itself is asserted on the
# deterministic starved run below.
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
        resilience = service.stats()["resilience"]
assert resolved == 120, f"{resolved} of 120 jobs resolved"
assert contradictions == 0, f"{contradictions} decided answers wrong"
assert lost >= 1, "chaos smoke never lost a worker"
assert retried >= 1, "chaos smoke never retried a job"

# Resilience bounds, read from the soak's own metrics snapshot.
snap = metrics.snapshot()
counters = snap["counters"]
assert metrics.counter_total(counters, "serve.retry.scheduled") == retried, counters
assert metrics.counter_total(counters, "serve.retry.exhausted") <= 10, counters
assert resilience["dead_lettered"] <= 10, resilience
assert metrics.counter_total(counters, "serve.dlq.added") <= 10, counters
assert resilience["dlq_depth"] <= 10, resilience
backoff = metrics.histogram_readout(snap["histograms"]["serve.retry.backoff_s"])
assert backoff["p99"] <= 5.0, backoff
print(
    f"chaos smoke: 120 jobs resolved, {dead} dead-lettered, "
    f"{lost} workers lost, {retried} retried, 0 contradictions"
)
PY
cat > "${WORK}/chaos/starved.jsonl" <<'JOBS'
{"procedure": "nonempty_pl", "instances": [{"factory": "repro.workloads.scaling:pl_counter_sws", "args": [12]}], "budget": {"step_budget": 4}, "label": "starved-12"}
JOBS
# A hopelessly starved job must dead-letter and fail the run...
if python -m repro.serve run "${WORK}/chaos/starved.jsonl" \
    --cache-dir "${WORK}/chaos/cache" --retries 2 --budget-multiplier 2 \
    --out /dev/null 2> /dev/null; then
    echo "expected the starved run to exit nonzero" >&2
    exit 1
fi
python -m repro.serve dlq list "${WORK}/chaos/cache" | grep -q starved-12
# The retry ladder provably ran: the record shows both attempts.
python -m repro.serve dlq list "${WORK}/chaos/cache" --json \
    | grep -q '"attempts": 2'
# ...and recover through dlq retry with real escalation room.
python -m repro.serve dlq retry "${WORK}/chaos/cache" \
    --retries 3 --budget-multiplier 32 > /dev/null
python -m repro.serve dlq list "${WORK}/chaos/cache" 2>&1 | grep -q "dlq: empty"

echo "== metrics smoke (one trace: snapshots, dashboard frame, explain) =="
mkdir "${WORK}/metrics"
cat > "${WORK}/metrics/jobs.jsonl" <<'JOBS'
{"procedure": "nonempty_pl", "instances": [{"factory": "repro.workloads.scaling:pl_counter_sws", "args": [6]}], "label": "c6"}
{"procedure": "nonempty_pl", "instances": [{"factory": "repro.workloads.scaling:pl_counter_sws", "args": [7]}], "label": "c7"}
{"procedure": "nonempty_pl", "instances": [{"factory": "repro.workloads.scaling:pl_counter_sws", "args": [8]}], "label": "c8"}
{"procedure": "nonempty_pl", "instances": [{"factory": "repro.workloads.scaling:pl_counter_sws", "args": [9]}], "label": "c9"}
JOBS
python -m repro.serve run "${WORK}/metrics/jobs.jsonl" \
    --workers 2 --repeat 2 --trace "${WORK}/metrics/trace.jsonl" \
    --out /dev/null 2> /dev/null
python - "${WORK}/metrics/trace.jsonl" <<'PY'
import sys

from repro import metrics

snap = metrics.last_snapshot(sys.argv[1])
assert snap is not None, "no snapshot exported"
assert snap["v"] == metrics.METRICS_SCHEMA_VERSION
counters = snap["counters"]
assert metrics.counter_total(counters, "serve.jobs.executed") == 4, counters
latency = snap["histograms"]["serve.job.latency_s{procedure=nonempty_pl}"]
assert latency["count"] == 4, latency  # worker samples merged up
assert metrics.histogram_readout(latency)["p99"] <= 5.0, latency
rate = metrics.cache_hit_rate(counters)
assert rate is not None and rate >= 0.4, counters  # warm repeat round
PY
python -m repro.serve top "${WORK}/metrics/trace.jsonl" --once > /dev/null
EXPLAIN_OUT="$(python -m repro.obs explain "${WORK}/metrics/trace.jsonl")"
for header in "where the time went" "how much work was done" \
    "whether and why a budget tripped"; do
    grep -q "== ${header} ==" <<< "${EXPLAIN_OUT}"
done

echo "== delta smoke (incremental re-check CLI + serve --repeat sessions) =="
mkdir "${WORK}/delta"
# Replay an edit script through one session: every verdict is
# cross-checked against a from-scratch solve, and at least 3 re-checks
# must avoid the full path.
python -m repro.delta replay \
    --trace repro.workloads.editing:menu_editing_trace \
    --compare --require-warm 3 > /dev/null
# A long session: 1,500 local edits stay local and never overflow the
# stack (each engine patches against its root), and every edit's delta
# is derived from the previous version's (none is diffed in full).
python -m repro.delta replay --trace repro.workloads.editing:menu_editing_trace --arg 8 --arg 4 --arg '"abcd"' --arg 1500 --require-warm 1400 > "${WORK}/delta/long.out"
tail -n 1 "${WORK}/delta/long.out" | grep -q "; edits: 1500 derived, 0 diffed$"
# An edited version holds the rules patched since its root, not a copy
# of every rule: 1,000 held versions of a 513-state menu retain at most
# 3 KB each (a copied transition map alone is ~13 KB).
python - <<'PY'
import gc
import random
import tracemalloc

from repro.core.sws import MSG, TransitionRule
from repro.logic import pl
from repro.workloads.editing import menu_words
from repro.workloads.pl_services import exactly, union_word_service

menu = union_word_service(menu_words(128), "abcd")
assert len(menu.states) == 513
editable = [s for s in menu.states if s != menu.start and not menu.transitions[s].is_final]
guards = [(pl.Var(MSG) & exactly(letter, "abcd")).simplify() for letter in "abcd"]
rng = random.Random(0)
gc.collect()
tracemalloc.start()
before = tracemalloc.get_traced_memory()[0]
versions = [menu]
for _ in range(1000):
    state = rng.choice(editable)
    target, _guard = versions[-1].transitions[state].targets[0]
    versions.append(versions[-1].replace(state, rule=TransitionRule([(target, rng.choice(guards))])))
gc.collect()
per_version = (tracemalloc.get_traced_memory()[0] - before) / 1000
tracemalloc.stop()
assert per_version <= 3 * 1024, f"{per_version:.0f} B retained per edited version"
PY
python -m repro.delta diff \
    --trace repro.workloads.editing:growing_trace --json \
    | grep -q '"alphabet_changed": true'
cat > "${WORK}/delta/jobs.jsonl" <<'JOBS'
{"procedure": "nonempty_pl", "instances": [{"factory": "repro.workloads.editing:edited_menu", "kwargs": {"step": "@round", "edits": 4}}], "label": "edited-menu"}
{"procedure": "nonempty_pl", "instances": [{"factory": "repro.workloads.scaling:pl_counter_sws", "args": [5]}], "label": "static-counter"}
JOBS
# Repeated rounds reuse one Session per job line: the "@round" spec
# re-checks incrementally, the static one stays cached.
python -m repro.serve run "${WORK}/delta/jobs.jsonl" --repeat 3 \
    --trace "${WORK}/delta/trace.jsonl" --out /dev/null \
    2> "${WORK}/delta/run.err"
grep -q "delta: 2 session(s), 4 recheck(s)" "${WORK}/delta/run.err"
grep -q "2 cached" "${WORK}/delta/run.err"
python - "${WORK}/delta/trace.jsonl" <<'PY'
import sys

from repro import metrics

snap = metrics.last_snapshot(sys.argv[1])
assert snap is not None, "no snapshot exported"
histograms = snap["histograms"]
# Edits stay local, and a cached re-check stays far under interactive
# latency.
edit_states = metrics.histogram_readout(histograms["delta.edit.states"])
assert edit_states["p99"] <= 10, edit_states
cached = histograms["delta.recheck.latency_s{mode=cached}"]
assert metrics.histogram_readout(cached)["p99"] <= 0.5, cached
PY

echo "== introspection smoke (progress + explain) =="
python - "${WORK}/introspect.trace.jsonl" <<'PY'
import json
import sys

from repro import obs
from repro.analysis import nonempty_pl
from repro.guard import Budget
from repro.obs import progress
from repro.workloads.scaling import pl_counter_sws

trace = sys.argv[1]
progress.DEFAULT_INTERVAL_S = 0.01
obs.configure(path=trace, mode="w")
try:
    answer = nonempty_pl(pl_counter_sws(15), guard=Budget(deadline_s=120))
finally:
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
python -m repro.obs explain "${WORK}/introspect.trace.jsonl" \
    | grep -q "dominant phase"

echo "== telemetry-off smoke (untraced solves: exact work, wall clock in bounds) =="
# With the telemetry sink OFF (the default), tracing and progress are
# off and the disabled hooks may not tax the solves: each does exactly
# its work, and the wall-clock bounds hold on plain perf_counter timings.
python - <<'PY'
import time

from repro import metrics, obs
from repro.analysis import nonempty_pl, nonempty_pl_nr_sat
from repro.analysis.stats import stats_delta
from repro.guard import _governor
from repro.reductions.sat_to_sws import clauses_from_tuples, cnf_to_sws
from repro.workloads.scaling import pl_counter_sws, random_3cnf

assert not obs.is_enabled() and not metrics.is_enabled()
assert _governor._PROGRESS is None, "progress tracked with no sink"


def solve(procedure, sws):
    t0 = time.perf_counter()
    with stats_delta() as work:
        answer = procedure(sws)
    return answer, time.perf_counter() - t0, work


# The counter family of Theorem 4.1(3): the AFA search explores exactly
# 2^bits valuation vectors.
counter_s = []
for bits in (8, 9, 10):
    answer, seconds, work = solve(nonempty_pl, pl_counter_sws(bits))
    assert answer.is_yes, answer
    assert work["vectors_explored"] == 2**bits, work.nonzero()
    counter_s.append(seconds)
assert sum(counter_s) / len(counter_s) <= 0.25, counter_s

# The SAT route on two random 3-CNFs agrees with the AFA route, with
# the same SAT calls and DPLL decisions every run.
sat_s = []
for seed, calls, decisions in ((0, 2, 0), (1, 3, 5)):
    sws = cnf_to_sws(clauses_from_tuples(random_3cnf(seed, 8, 24)))
    answer, seconds, work = solve(nonempty_pl_nr_sat, sws)
    assert not answer.is_unknown, answer
    assert answer.verdict == nonempty_pl(sws).verdict, (seed, answer)
    assert work["sat_calls"] == calls, work.nonzero()
    assert work["dpll_decisions"] == decisions, work.nonzero()
    sat_s.append(seconds)
assert max(sat_s) <= 1.0, sat_s
PY

echo "all green"
