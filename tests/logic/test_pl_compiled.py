"""Interning, simplify dedup, and the compiled evaluators in ``pl``."""

import copy
import pickle

from repro.analysis.stats import STATS
from repro.logic import pl


class TestInterning:
    def test_constructors_return_identical_objects(self):
        assert pl.Var("p") is pl.Var("p")
        assert pl.Not(pl.Var("p")) is pl.Not(pl.Var("p"))
        assert pl.And([pl.Var("p"), pl.Var("q")]) is pl.And(
            [pl.Var("p"), pl.Var("q")]
        )
        assert pl.Or([pl.Var("p"), pl.Var("q")]) is pl.Or(
            [pl.Var("p"), pl.Var("q")]
        )
        assert pl.Const(True) is pl.TRUE
        assert pl.Const(False) is pl.FALSE

    def test_operand_order_distinguishes(self):
        assert pl.And([pl.Var("p"), pl.Var("q")]) is not pl.And(
            [pl.Var("q"), pl.Var("p")]
        )

    def test_interning_is_hit_counted(self):
        STATS.reset()
        pl.Var("fresh_counter_var")
        pl.Var("fresh_counter_var")
        assert STATS.intern_hits >= 1

    def test_variables_cached_and_correct(self):
        formula = pl.parse("(p & q) | !r")
        assert formula.variables() == frozenset({"p", "q", "r"})
        assert formula.variables() is formula.variables()

    def test_simplify_memoized(self):
        formula = pl.parse("(p & true) | (q & false)")
        assert formula.simplify() is formula.simplify()

    def test_pickle_roundtrip_preserves_identity(self):
        formula = pl.parse("(p & q) | !r")
        again = pickle.loads(pickle.dumps(formula))
        assert again is formula

    def test_copy_returns_self(self):
        formula = pl.parse("p & q")
        assert copy.copy(formula) is formula
        assert copy.deepcopy(formula) is formula

    def test_nodes_are_immutable(self):
        formula = pl.Var("p")
        try:
            formula.name = "q"
        except AttributeError:
            pass
        else:  # pragma: no cover
            raise AssertionError("Var should be immutable")


class TestSimplifyDedup:
    def test_and_dedupes_repeated_operands(self):
        p, q = pl.Var("p"), pl.Var("q")
        simplified = pl.And([p, q, p, q, p]).simplify()
        assert simplified == pl.And([p, q])

    def test_or_dedupes_repeated_operands(self):
        p, q = pl.Var("p"), pl.Var("q")
        simplified = pl.Or([p, q, p, q, p]).simplify()
        assert simplified == pl.Or([p, q])

    def test_dedup_is_order_preserving(self):
        p, q, r = pl.Var("p"), pl.Var("q"), pl.Var("r")
        assert pl.And([q, p, q, r, p]).simplify() == pl.And([q, p, r])

    def test_dedup_collapses_to_single_operand(self):
        p = pl.Var("p")
        assert pl.And([p, p, p]).simplify() is p
        assert pl.Or([p, p]).simplify() is p

    def test_nested_substitution_chain_stays_small(self):
        """The blow-up scenario: iterated substitution with shared parts."""
        formula = pl.Var("v0")
        for i in range(12):
            formula = pl.And([formula, formula, pl.Var(f"v{i + 1}")])
            formula = formula.simplify()
        # Without dedup this is 2^12 copies of v0; with it, a flat chain.
        assert len(formula.variables()) == 13
        assert isinstance(formula, pl.And)
        assert len(formula.operands) == 13


class TestCompiledEvaluators:
    INDEX = {"p": 0, "q": 1, "r": 2}

    def test_compile_mask_basic(self):
        fn = pl.compile_mask(pl.parse("(p & q) | !r"), self.INDEX)
        assert fn(0b011) is True
        assert fn(0b100) is False
        assert fn(0b111) is True

    def test_compile_mask_constants(self):
        assert pl.compile_mask(pl.TRUE, self.INDEX)(0) is True
        assert pl.compile_mask(pl.FALSE, self.INDEX)(0b111) is False

    def test_compile_mask_cached(self):
        formula = pl.parse("p | (q & r)")
        assert pl.compile_mask(formula, self.INDEX) is pl.compile_mask(
            formula, self.INDEX
        )

    def test_compile_cache_is_cleared_at_its_limit(self, monkeypatch):
        monkeypatch.setattr(pl, "_COMPILE_CACHE", {})
        monkeypatch.setattr(pl, "_COMPILE_CACHE_LIMIT", 4)
        index = {f"v{i}": i for i in range(10)}
        for i in range(10):
            pl.compile_mask(pl.Var(f"v{i}"), index)
            assert 1 <= len(pl._COMPILE_CACHE) <= 4
        # The latest entry survives the clear.
        fn = pl.compile_mask(pl.Var("v9"), index)
        assert pl.compile_mask(pl.Var("v9"), index) is fn

    def test_compile_row_sets_bits(self):
        row = pl.compile_row(
            ((1, pl.Var("p")), (2, pl.Var("q")), (4, pl.parse("p & q"))),
            self.INDEX,
        )
        assert row(0b00) == 0
        assert row(0b01) == 1
        assert row(0b10) == 2
        assert row(0b11) == 7

    def test_compile_row_empty(self):
        assert pl.compile_row((), self.INDEX)(0b111) == 0

    def test_compile_row_shares_subexpressions(self):
        shared = pl.parse("p & q & r")
        row = pl.compile_row(
            ((1, pl.And([shared, pl.Var("p")])), (2, pl.Not(shared))),
            self.INDEX,
        )
        assert row(0b111) == 1
        assert row(0b011) == 2
