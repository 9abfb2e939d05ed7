"""Experiment T1.4 — Table 1, row SWS(PL, PL).

Paper bounds: non-emptiness, validation and equivalence all
PSPACE-complete, "along the same lines as AFA".  The succinct-counter
family makes the exponential behaviour concrete: the service counter(b)
accepts exactly input lengths ≡ 0 (mod 2^b), so the vector-reachability
procedure must traverse 2^b valuation vectors before its first witness —
the measured time should roughly double per extra bit.
"""

import pytest

from repro.analysis import equivalent_pl, nonempty_pl, validate_pl
from repro.reductions.afa_to_sws import afa_to_sws
from repro.workloads.scaling import afa_counter, pl_counter_sws


@pytest.mark.parametrize("bits", [2, 3, 4, 5])
def test_t1_4_nonemptiness_counter(benchmark, bits, one_shot):
    """PSPACE shape: witness length (and vector count) is 2^bits."""
    service = pl_counter_sws(bits)

    answer = one_shot(lambda: nonempty_pl(service))
    assert answer.is_yes
    assert len(answer.witness) == 2**bits
    benchmark.extra_info["bits"] = bits
    benchmark.extra_info["witness_length"] = len(answer.witness)


@pytest.mark.parametrize("bits", [2, 3, 4])
def test_t1_4_nonemptiness_via_afa_reduction(benchmark, bits, one_shot):
    """The AFA lower-bound family pushed through the reduction."""
    service = afa_to_sws(afa_counter(bits))

    answer = one_shot(lambda: nonempty_pl(service))
    assert answer.is_yes
    benchmark.extra_info["bits"] = bits


@pytest.mark.parametrize("bits", [2, 3, 4])
def test_t1_4_validation_counter(benchmark, bits, one_shot):
    """Validation coincides with non-emptiness for O = true (Section 4)."""
    service = pl_counter_sws(bits)

    answer = one_shot(lambda: validate_pl(service, True))
    assert answer.is_yes
    benchmark.extra_info["bits"] = bits


@pytest.mark.parametrize("bits", [2, 3])
def test_t1_4_equivalence_counters(benchmark, bits, one_shot):
    """Equivalence via the product vector space: counter(b) vs counter(b+1)."""
    left = pl_counter_sws(bits)
    right = pl_counter_sws(bits + 1)

    answer = one_shot(lambda: equivalent_pl(left, right))
    assert answer.is_no
    assert len(answer.witness) == 2**bits  # shortest distinguishing word
    benchmark.extra_info["bits"] = bits
    benchmark.extra_info["witness_length"] = len(answer.witness)


# -- BENCH_table1_pl.json emission ------------------------------------------


def _seed_reference_witness(afa):
    """The seed engine's accepting-witness search, verbatim.

    Interpreted AST ``pre_step`` per state, ``repr``-ordered symbols, and
    per-vector witness tuples rebuilt by prepending (O(length²) total) —
    reproduced here so BENCH_table1_pl.json's *before* column measures the
    seed algorithm from the current tree.
    """
    from collections import deque

    start = afa.empty_word_vector()
    if afa.initial_condition.evaluate(start):
        return ()
    witnesses = {start: ()}
    queue = deque([start])
    order = sorted(afa.alphabet, key=repr)
    while queue:
        vector = queue.popleft()
        for symbol in order:
            nxt = afa._pre_step_ast(vector, symbol)
            if nxt in witnesses:
                continue
            word = (symbol,) + witnesses[vector]
            if afa.initial_condition.evaluate(nxt):
                return word
            witnesses[nxt] = word
            queue.append(nxt)
    return None


def collect_before_after() -> dict:
    """Before/after rows: seed algorithm vs compiled bitmask path."""
    from _bench_io import timed
    from repro.analysis.stats import stats_delta
    from repro.automata import afa as afa_mod
    from repro.core.pl_semantics import to_afa

    rows = []
    for bits in (4, 6, 8, 10, 12):
        service = pl_counter_sws(bits)
        # Snapshot-diff rather than STATS.reset(): scoped to this sweep,
        # so nothing enclosing (a trace span, another section) is clobbered.
        with stats_delta() as work:
            t_compiled, answer = timed(lambda: nonempty_pl(service))
        with afa_mod.ast_fallback():
            t_ast, answer_ast = timed(lambda: nonempty_pl(service))
        t_seed, seed_witness = timed(
            lambda: _seed_reference_witness(to_afa(service))
        )
        assert answer.is_yes and answer_ast.is_yes
        assert answer.witness == answer_ast.witness
        assert len(seed_witness) == len(answer.witness)
        rows.append(
            {
                "bits": bits,
                "witness_length": len(answer.witness),
                "seconds_seed": round(t_seed, 6),
                "seconds_ast_interpreter": round(t_ast, 6),
                "seconds_after_compiled": round(t_compiled, 6),
                "speedup_vs_seed": round(t_seed / t_compiled, 2),
                "speedup_vs_ast": round(t_ast / t_compiled, 2),
                "vectors_explored": work["vectors_explored"],
                "pre_steps": work["pre_steps"],
                "alphabet_symbols": work["alphabet_symbols"],
                "symbol_classes": work["symbol_classes"],
            }
        )
    eq_rows = []
    for bits in (4, 6, 8):
        left, right = pl_counter_sws(bits), pl_counter_sws(bits + 1)
        t_compiled, answer = timed(lambda: equivalent_pl(left, right))
        with afa_mod.ast_fallback():
            t_ast, answer_ast = timed(lambda: equivalent_pl(left, right))
        assert answer.is_no and answer_ast.is_no
        assert answer.witness == answer_ast.witness
        eq_rows.append(
            {
                "bits": bits,
                "witness_length": len(answer.witness),
                "seconds_before_ast": round(t_ast, 6),
                "seconds_after_compiled": round(t_compiled, 6),
                "speedup": round(t_ast / t_compiled, 2),
            }
        )
    return {
        "experiment": "T1.4 SWS(PL, PL) — counter family, PSPACE row",
        "before": "interpreted AST evaluation (seed engine)",
        "after": "compiled bitmask evaluation with symbol-class dedup",
        "nonemptiness": rows,
        "equivalence": eq_rows,
        "headline_speedup_vs_seed": max(r["speedup_vs_seed"] for r in rows),
        "note": (
            "seconds_seed reproduces the seed algorithm exactly (interpreted "
            "AST pre_step, repr symbol order, quadratic witness prepending); "
            "seconds_ast_interpreter is the current interpreter fallback, "
            "which already has linear witness bookkeeping and canonical "
            "symbol order"
        ),
    }


def emit_trace_artifact(path: str) -> None:
    """Re-run a representative sweep with tracing on, into ``path``.

    Separate from the timed sweep so trace emission never pollutes the
    recorded before/after numbers.
    """
    from repro import obs

    obs.configure(path=path, mode="w")
    try:
        for bits in (4, 6, 8):
            assert nonempty_pl(pl_counter_sws(bits)).provenance is not None
        assert equivalent_pl(pl_counter_sws(4), pl_counter_sws(5)).is_no
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
        "recursive_pl",
        payload,
        regenerate="PYTHONPATH=src python benchmarks/bench_table1_pl_recursive.py",
    )
    worst = min(
        r["speedup_vs_seed"] for r in payload["nonemptiness"] if r["bits"] >= 8
    )
    trace_path = trace_artifact_path(__file__)
    emit_trace_artifact(trace_path)
    print(f"wrote {BENCH_TABLE1_PL}")
    print(f"wrote {trace_path} (inspect: python -m repro.obs explain)")
    print(
        f"headline speedup vs seed {payload['headline_speedup_vs_seed']}x "
        f"(worst large-input {worst}x)"
    )


if __name__ == "__main__":
    main()
