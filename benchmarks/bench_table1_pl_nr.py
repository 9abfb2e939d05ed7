"""Experiment T1.5 — Table 1, row SWS_nr(PL, PL).

Paper bounds: non-emptiness and validation NP-complete, equivalence
coNP-complete.  The upper-bound procedure is a SAT encoding (DPLL); the
lower bound is the SAT reduction.  The benchmark sweeps random 3-CNF
instances encoded as services and shows (a) the SWS procedure tracks the
DPLL baseline on the same instances, and (b) the coNP equivalence check
stays feasible on nonrecursive services.
"""

import pytest

from repro.analysis import (
    equivalent_pl,
    nonempty_pl_nr_sat,
    validate_pl,
    validate_pl_nr_sat,
)
from repro.logic.sat import solve_cnf
from repro.reductions.sat_to_sws import clauses_from_tuples, cnf_to_sws
from repro.workloads.random_sws import random_pl_sws
from repro.workloads.scaling import random_3cnf


@pytest.mark.parametrize("n_variables,n_clauses", [(4, 8), (6, 14), (8, 20)])
def test_t1_5_nonemptiness_sat_procedure(benchmark, n_variables, n_clauses):
    """NP procedure: bounded-depth unfolding + DPLL."""
    instances = [
        cnf_to_sws(clauses_from_tuples(random_3cnf(seed, n_variables, n_clauses)))
        for seed in range(5)
    ]

    def analyze():
        return [nonempty_pl_nr_sat(sws).is_yes for sws in instances]

    outcomes = benchmark(analyze)
    benchmark.extra_info["satisfiable"] = sum(outcomes)
    benchmark.extra_info["n_variables"] = n_variables


@pytest.mark.parametrize("n_variables,n_clauses", [(4, 8), (6, 14), (8, 20)])
def test_t1_5_dpll_baseline(benchmark, n_variables, n_clauses):
    """Baseline: DPLL on the raw CNF (the reduction's source problem)."""
    instances = [
        clauses_from_tuples(random_3cnf(seed, n_variables, n_clauses))
        for seed in range(5)
    ]

    def solve():
        return [solve_cnf(clauses) is not None for clauses in instances]

    outcomes = benchmark(solve)
    benchmark.extra_info["satisfiable"] = sum(outcomes)


def test_t1_5_procedures_agree(benchmark):
    """Cross-validation: the NP procedure equals the DPLL baseline."""

    def check():
        for seed in range(10):
            clauses = clauses_from_tuples(random_3cnf(seed, 5, 10))
            via_sws = nonempty_pl_nr_sat(cnf_to_sws(clauses)).is_yes
            via_dpll = solve_cnf(clauses) is not None
            assert via_sws == via_dpll
        return True

    assert benchmark.pedantic(check, rounds=1, iterations=1, warmup_rounds=0)


@pytest.mark.parametrize("n_states", [3, 4, 5])
def test_t1_5_validation(benchmark, n_states, one_shot):
    """Validation (NP): the SAT procedure, both output values."""
    services = [
        random_pl_sws(seed, n_states=n_states, n_variables=2, recursive=False)
        for seed in range(4)
    ]

    def analyze():
        return [
            (
                validate_pl_nr_sat(sws, True).verdict,
                validate_pl_nr_sat(sws, False).verdict,
            )
            for sws in services
        ]

    one_shot(analyze)
    benchmark.extra_info["n_states"] = n_states


def test_t1_5_validation_routes_agree(benchmark):
    """Cross-validation: SAT route equals the vector-search route."""

    def check():
        for seed in range(8):
            sws = random_pl_sws(seed, n_states=4, n_variables=2, recursive=False)
            for output in (True, False):
                assert (
                    validate_pl_nr_sat(sws, output).is_yes
                    == validate_pl(sws, output).is_yes
                )
        return True

    assert benchmark.pedantic(check, rounds=1, iterations=1, warmup_rounds=0)


@pytest.mark.parametrize("n_states", [3, 4, 5])
def test_t1_5_equivalence(benchmark, n_states, one_shot):
    """Equivalence (coNP): pairwise over random nonrecursive services."""
    services = [
        random_pl_sws(seed, n_states=n_states, n_variables=2, recursive=False)
        for seed in range(4)
    ]

    def analyze():
        return [
            equivalent_pl(a, b).verdict
            for a in services
            for b in services
        ]

    one_shot(analyze)
    benchmark.extra_info["n_states"] = n_states


# -- BENCH_table1_pl.json emission ------------------------------------------


def collect_before_after() -> dict:
    """Nonrecursive row: SAT work counters plus AFA-route before/after."""
    from _bench_io import timed
    from repro.analysis.stats import stats_delta
    from repro.automata import afa as afa_mod

    sat_rows = []
    for n_variables, n_clauses in ((4, 8), (6, 14), (8, 20)):
        instances = [
            cnf_to_sws(
                clauses_from_tuples(random_3cnf(seed, n_variables, n_clauses))
            )
            for seed in range(5)
        ]
        # Snapshot-diff rather than STATS.reset() — see stats_delta().
        with stats_delta() as work:
            seconds, outcomes = timed(
                lambda: [nonempty_pl_nr_sat(sws).is_yes for sws in instances]
            )
        sat_rows.append(
            {
                "n_variables": n_variables,
                "n_clauses": n_clauses,
                "satisfiable": sum(outcomes),
                "seconds": round(seconds, 6),
                "sat_calls": work["sat_calls"],
                "dpll_decisions": work["dpll_decisions"],
            }
        )
    eq_rows = []
    for n_states in (3, 4, 5):
        services = [
            random_pl_sws(seed, n_states=n_states, n_variables=2, recursive=False)
            for seed in range(4)
        ]

        def pairwise():
            return [
                equivalent_pl(a, b).verdict for a in services for b in services
            ]

        t_compiled, verdicts = timed(pairwise)
        with afa_mod.ast_fallback():
            t_ast, verdicts_ast = timed(pairwise)
        assert verdicts == verdicts_ast
        eq_rows.append(
            {
                "n_states": n_states,
                "seconds_before_ast": round(t_ast, 6),
                "seconds_after_compiled": round(t_compiled, 6),
                "speedup": round(t_ast / t_compiled, 2),
            }
        )
    return {
        "experiment": "T1.5 SWS_nr(PL, PL) — SAT procedure, NP/coNP row",
        "before": "interpreted AST evaluation (seed engine)",
        "after": "compiled bitmask evaluation with symbol-class dedup",
        "nonemptiness_sat": sat_rows,
        "equivalence": eq_rows,
    }


def emit_trace_artifact(path: str) -> None:
    """A traced representative SAT-route sweep (see the recursive emitter)."""
    from repro import obs

    obs.configure(path=path, mode="w")
    try:
        for seed in range(3):
            sws = cnf_to_sws(clauses_from_tuples(random_3cnf(seed, 5, 10)))
            assert nonempty_pl_nr_sat(sws).provenance is not None
    finally:
        obs.configure(enabled=False)


def main() -> None:
    import os
    import sys

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from _bench_io import BENCH_TABLE1_PL, merge_section, trace_artifact_path

    payload = collect_before_after()
    merge_section(
        BENCH_TABLE1_PL,
        "nonrecursive_pl",
        payload,
        regenerate="PYTHONPATH=src python benchmarks/bench_table1_pl_nr.py",
    )
    trace_path = trace_artifact_path(__file__)
    emit_trace_artifact(trace_path)
    print(f"wrote {BENCH_TABLE1_PL}")
    print(f"wrote {trace_path} (inspect: python -m repro.obs explain)")


if __name__ == "__main__":
    main()
