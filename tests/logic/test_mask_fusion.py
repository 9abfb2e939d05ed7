"""Fused literal tests and merged bit moves in the compiled evaluators.

``_MaskCodegen`` compiles the literal operands of an ``And``/``Or`` into
one mask test and merges literal row bits with equal shift distance into
one shift-and-mask term.  Both must agree with ``Formula.evaluate`` on
every assignment, including the corner cases where a naive mask test is
wrong: a variable occurring both positive and negated.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.logic import pl


def _row(entries, index):
    """The single-step row of ``(output position, formula)`` entries."""
    return pl.row_function(pl.RowPlan(entries, index), index)


VARIABLES = ["a", "b", "c", "d", "e", "f"]
#: Deliberately not the identity, so bit positions differ from list order.
INDEX = {name: (3 * i + 1) % 7 for i, name in enumerate(VARIABLES)}
ALL_MASKS = [
    sum(1 << INDEX[name] for name, on in zip(VARIABLES, bits) if on)
    for bits in itertools.product((0, 1), repeat=len(VARIABLES))
]


def _env(mask):
    return frozenset(name for name in VARIABLES if mask >> INDEX[name] & 1)


def literals():
    var = st.sampled_from(VARIABLES).map(pl.Var)
    return st.one_of(var, var.map(pl.Not))


@st.composite
def formulas(draw, depth=3):
    """Formulas rich in literal operands: duplicates, complements, mixes."""
    if depth == 0:
        return draw(st.one_of(literals(), st.sampled_from([pl.TRUE, pl.FALSE])))
    kind = draw(st.sampled_from(["and", "or", "not", "not-and", "literal"]))
    if kind == "literal":
        return draw(literals())
    if kind == "not":
        return pl.Not(draw(formulas(depth=depth - 1)))
    if kind == "not-and":
        return pl.Not(pl.And(draw(st.lists(literals(), max_size=4))))
    # Mostly literals, possibly repeated or complementary, plus subformulas;
    # empty operand lists included.
    operands = draw(
        st.lists(st.one_of(literals(), formulas(depth=depth - 1)), max_size=5)
    )
    if operands and draw(st.booleans()):
        operands.append(draw(st.sampled_from(operands)))  # a duplicate
    return pl.And(operands) if kind == "and" else pl.Or(operands)


class TestFusedMasks:
    @given(formulas())
    @settings(max_examples=200, deadline=None)
    def test_compile_mask_equals_evaluate_everywhere(self, formula):
        fn = pl.compile_mask(formula, INDEX)
        for mask in ALL_MASKS:
            assert fn(mask) == formula.evaluate(_env(mask))

    @given(st.lists(formulas(depth=2), max_size=7))
    @settings(max_examples=150, deadline=None)
    def test_compile_row_equals_evaluate_everywhere(self, parts):
        # Output bits in a scrambled order, so literal moves get several
        # different shift distances in one row.
        entries = tuple(((2 * i + 1) % 9, f) for i, f in enumerate(parts))
        row = _row(entries, INDEX)
        for mask in ALL_MASKS:
            env = _env(mask)
            expected = 0
            for i, formula in entries:
                if formula.evaluate(env):
                    expected |= 1 << i
            assert row(mask) == expected


class TestComplementaryLiterals:
    X, Y = pl.Var("a"), pl.Var("b")

    def test_and_with_complement_is_false(self):
        formula = pl.And((self.X, pl.Not(self.X)))
        fn = pl.compile_mask(formula, INDEX)
        assert [fn(m) for m in ALL_MASKS] == [False] * len(ALL_MASKS)

    def test_or_with_complement_is_true(self):
        formula = pl.Or((self.X, pl.Not(self.X)))
        fn = pl.compile_mask(formula, INDEX)
        assert [fn(m) for m in ALL_MASKS] == [True] * len(ALL_MASKS)

    def test_complement_among_other_operands(self):
        conj = pl.And((self.Y, self.X, pl.Not(self.X)))
        disj = pl.Or((pl.Not(self.Y), self.X, pl.Not(self.X)))
        for mask in ALL_MASKS:
            assert pl.compile_mask(conj, INDEX)(mask) is False
            assert pl.compile_mask(disj, INDEX)(mask) is True

    def test_complement_in_row(self):
        row = _row(
            ((0, pl.And((self.X, pl.Not(self.X)))), (1, pl.Or((self.X, pl.Not(self.X))))),
            INDEX,
        )
        assert {row(m) for m in ALL_MASKS} == {2}

    def test_empty_junctions(self):
        assert pl.compile_mask(pl.And(()), INDEX)(0) is True
        assert pl.compile_mask(pl.Or(()), INDEX)(0) is False


class TestRowBitMoves:
    def test_literal_rows_copy_and_complement_bits(self):
        index = {f"s{i}": i for i in range(8)}
        entries = [(i, pl.Var(f"s{i + 2}")) for i in range(6)]
        entries += [(6, pl.Not(pl.Var("s0"))), (7, pl.TRUE)]
        row = _row(entries, index)
        for mask in range(256):
            expected = (mask >> 2) & 0b111111
            expected |= (not mask & 1) << 6
            expected |= 1 << 7
            assert row(mask) == expected

    def test_cache_key_ignores_unrelated_index_entries(self):
        formula = pl.And((pl.Var("p"), pl.Not(pl.Var("q"))))
        small = {"p": 0, "q": 1}
        large = {"p": 0, "q": 1, **{f"x{i}": i + 2 for i in range(50)}}
        assert pl.compile_mask(formula, small) is pl.compile_mask(formula, large)
        moved = {"p": 1, "q": 0}
        assert pl.compile_mask(formula, moved) is not pl.compile_mask(formula, small)
        assert pl.compile_mask(formula, moved)(0b10) is True
