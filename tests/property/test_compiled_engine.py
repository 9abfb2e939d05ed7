"""Compiled bitmask evaluation vs. AST interpretation.

The compiled engine (``pl.compile_mask``, the row plans with their
single-step ``pl.row_function`` and their rendering into the generated
searchers, and the AFA's ``_CompiledAFA``) must be observationally
identical to the interpreted path: same truth values, same accepted
words, same (shortest) witnesses.  These tests drive both paths on
random formulas and random PL services.
"""

from hypothesis import given, settings, strategies as st

from repro.automata import afa as afa_mod
from repro.core.pl_semantics import to_afa
from repro.core.run import run_pl
from repro.logic import pl
from repro.workloads.random_sws import random_pl_sws

VARIABLES = ["p", "q", "r", "s"]


@st.composite
def formulas(draw, depth=4):
    if depth == 0 or draw(st.booleans()):
        choice = draw(st.integers(0, len(VARIABLES)))
        if choice == len(VARIABLES):
            return pl.TRUE if draw(st.booleans()) else pl.FALSE
        leaf = pl.Var(VARIABLES[choice])
        return pl.Not(leaf) if draw(st.booleans()) else leaf
    kind = draw(st.sampled_from(["and", "or", "not"]))
    if kind == "not":
        return pl.Not(draw(formulas(depth=depth - 1)))
    parts = draw(st.lists(formulas(depth=depth - 1), min_size=2, max_size=3))
    return pl.And(parts) if kind == "and" else pl.Or(parts)


def _assignments():
    return st.sets(st.sampled_from(VARIABLES)).map(frozenset)


INDEX = {name: i for i, name in enumerate(VARIABLES)}


def _mask_of(env):
    return sum(1 << INDEX[v] for v in env if v in INDEX)


@st.composite
def row_entries(draw):
    """A row of literal, negated-literal, constant and compound entries.

    Output positions are drawn from a range wider than the variables'
    bit positions, in any order, so the literal moves shift both ways.
    """
    positions = draw(st.permutations(range(2 * len(VARIABLES) + 1)))
    entries = []
    for position in positions[: draw(st.integers(0, len(positions)))]:
        kind = draw(st.sampled_from(["literal", "negated", "constant", "compound"]))
        if kind == "compound":
            formula = draw(formulas(depth=3))
        elif kind == "constant":
            formula = pl.TRUE if draw(st.booleans()) else pl.FALSE
        else:
            formula = pl.Var(draw(st.sampled_from(VARIABLES)))
            formula = pl.Not(formula) if kind == "negated" else formula
        entries.append((position, formula))
    return entries


def _rendered(plan):
    """The plan rendered as the generated searchers inline it, as a function."""
    gen = pl._MaskCodegen(INDEX)
    gen.count_row(plan.compound)
    return pl._assemble("_row", "", gen.lines, f"    return {gen.row(plan)}")


class TestCompiledMask:
    @given(formulas(), _assignments())
    @settings(max_examples=150, deadline=None)
    def test_compile_mask_agrees_with_evaluate(self, formula, env):
        fn = pl.compile_mask(formula, INDEX)
        assert fn(_mask_of(env)) == formula.evaluate(env)

    @given(row_entries(), _assignments())
    @settings(max_examples=150, deadline=None)
    def test_compile_row_agrees_with_per_state_evaluate(self, entries, env):
        plan = pl.RowPlan(entries, INDEX)
        expected = sum(1 << i for i, f in entries if f.evaluate(env))
        assert pl.row_function(plan, INDEX)(_mask_of(env)) == expected
        assert _rendered(plan)(_mask_of(env)) == expected

    @given(formulas(), _assignments())
    @settings(max_examples=80, deadline=None)
    def test_simplify_preserved_under_compilation(self, formula, env):
        fn = pl.compile_mask(formula.simplify(), INDEX)
        assert fn(_mask_of(env)) == formula.evaluate(env)


def pl_words(max_size=4):
    symbol = st.sets(st.sampled_from(["x0", "x1"])).map(frozenset)
    return st.lists(symbol, max_size=max_size)


class TestCompiledAFA:
    @given(st.integers(0, 40), pl_words(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_accepts_agrees_with_ast_fallback(self, seed, word, recursive):
        sws = random_pl_sws(seed, n_states=4, n_variables=2, recursive=recursive)
        afa = to_afa(sws)
        compiled = afa.accepts(word)
        with afa_mod.ast_fallback():
            interpreted = afa.accepts(word)
        assert compiled == interpreted == run_pl(sws, word).output

    @given(st.integers(0, 40))
    @settings(max_examples=40, deadline=None)
    def test_witness_identical_to_ast_fallback(self, seed):
        """Symbol dedup may only skip *duplicate rows*, never change words."""
        sws = random_pl_sws(seed, n_states=4, n_variables=2)
        afa = to_afa(sws)
        compiled = afa.accepting_witness()
        with afa_mod.ast_fallback():
            interpreted = afa.accepting_witness()
        assert compiled == interpreted

    @given(st.integers(0, 30))
    @settings(max_examples=25, deadline=None)
    def test_reachable_vectors_agree(self, seed):
        sws = random_pl_sws(seed, n_states=3, n_variables=2)
        afa = to_afa(sws)
        compiled = afa.reachable_vectors()
        with afa_mod.ast_fallback():
            interpreted = afa.reachable_vectors()
        assert compiled == interpreted

    @given(st.integers(0, 30), st.integers(0, 30))
    @settings(max_examples=25, deadline=None)
    def test_difference_witness_agrees(self, seed_a, seed_b):
        from repro.core.pl_semantics import joint_variables

        sws_a = random_pl_sws(seed_a, n_states=3, n_variables=2)
        sws_b = random_pl_sws(seed_b, n_states=3, n_variables=2)
        variables = joint_variables(sws_a, sws_b)
        a = to_afa(sws_a, variables)
        b = to_afa(sws_b, variables)
        compiled = a.difference_witness(b)
        with afa_mod.ast_fallback():
            interpreted = a.difference_witness(b)
        assert compiled == interpreted
        if compiled is not None:
            assert a.accepts(compiled) != b.accepts(compiled)
