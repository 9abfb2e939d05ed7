"""Interning, simplify dedup, and the compiled evaluators in ``pl``."""

import copy
import pickle

from repro.analysis.stats import STATS
from repro.logic import pl


def _row(entries, index):
    """The single-step row of ``(output position, formula)`` entries."""
    return pl.row_function(pl.RowPlan(entries, index), index)


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
        row = _row(((0, pl.Var("p")), (1, pl.Var("q")), (2, pl.parse("p & q"))), self.INDEX)
        assert row(0b00) == 0
        assert row(0b01) == 1
        assert row(0b10) == 2
        assert row(0b11) == 7

    def test_compile_row_empty(self):
        assert _row((), self.INDEX)(0b111) == 0

    def test_compile_row_shares_subexpressions(self):
        shared = pl.parse("p & q & r")
        row = _row(((0, pl.And([shared, pl.Var("p")])), (1, pl.Not(shared))), self.INDEX)
        assert row(0b111) == 1
        assert row(0b011) == 2


class TestRowPlan:
    INDEX = {"p": 0, "q": 1, "r": 2, "s": 3}

    def test_plan_parts(self):
        p, q, r = pl.Var("p"), pl.Var("q"), pl.Var("r")
        compound = pl.parse("p & q")
        plan = pl.RowPlan(
            [(0, q), (1, r), (2, pl.Not(p)), (3, pl.TRUE), (4, pl.FALSE), (5, compound), (6, p)],
            self.INDEX,
        )
        assert plan.constant == 1 << 3
        # q→0 and r→1 both shift right by one; !p→2 and p→6 shift left.
        assert plan.moves == ((False, 1, 0b11), (True, -2, 1 << 2), (False, -6, 1 << 6))
        assert plan.compound == ((5, compound),)

    def test_literal_rows_generate_no_code(self, monkeypatch):
        assembled = []
        assemble = pl._assemble
        monkeypatch.setattr(pl, "_assemble", lambda *a: assembled.append(a[0]) or assemble(*a))
        row = _row([(i, pl.Not(pl.Var(name))) for i, name in enumerate("pqrs")], self.INDEX)
        assert [row(m) for m in (0, 0b1010, 0b1111)] == [0b1111, 0b0101, 0]
        assert assembled == []

    def test_compound_part_is_cached_by_its_entries_alone(self, monkeypatch):
        monkeypatch.setattr(pl, "_COMPILE_CACHE", {})
        compound = pl.parse("(p | q) & (r | !s)")
        one = _row([(0, pl.Var("p")), (3, compound)], self.INDEX)
        misses = STATS.compile_cache_misses
        other = _row([(0, pl.Not(pl.Var("q"))), (1, pl.TRUE), (3, compound)], self.INDEX)
        assert STATS.compile_cache_misses == misses  # a hit: same compound entries
        assert len(pl._COMPILE_CACHE) == 1
        for mask in range(16):
            env = {name for name, i in self.INDEX.items() if mask >> i & 1}
            bit = compound.evaluate(env) << 3
            assert one(mask) == (mask & 1) | bit
            assert other(mask) == (not mask >> 1 & 1) | 2 | bit
