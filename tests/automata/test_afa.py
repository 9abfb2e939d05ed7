"""Tests for alternating finite automata."""

import itertools

import pytest

from repro.automata.afa import AFA
from repro.automata.regex import parse_regex
from repro.errors import ReproError
from repro.logic import pl
from repro.workloads.scaling import afa_counter


@pytest.fixture
def conjunction_afa() -> AFA:
    """Genuine alternation: a(w) with w ending in 'b' AND containing no 'c'.

    ``endb`` tracks "remaining word ends with b" (via the auxiliary final
    state ``emp`` for the empty remainder), ``noc`` tracks "no c remains";
    the initial dispatch conjoins both universes.
    """
    endb, noc, emp = pl.Var("endb"), pl.Var("noc"), pl.Var("emp")
    return AFA(
        {"endb", "noc", "emp", "init"},
        {"a", "b", "c"},
        {
            ("endb", "a"): endb,
            ("endb", "c"): endb,
            ("endb", "b"): endb | emp,
            ("noc", "a"): noc,
            ("noc", "b"): noc,
            ("init", "a"): endb & noc,
        },
        pl.Var("init"),
        {"emp", "noc"},
    )


class TestSemantics:
    def test_alternation(self, conjunction_afa):
        for word in ["ab", "aab", "abab", "abb"]:
            assert conjunction_afa.accepts(word), word
        for word in ["", "a", "ba", "bb", "b", "acb", "abcb", "abc"]:
            assert not conjunction_afa.accepts(word), word

    def test_negation_in_conditions(self):
        # accepts words where after reading 'a' the rest is NOT accepted
        # from p — i.e. complement through the transition condition.
        afa = AFA(
            {"p", "init"},
            {"a"},
            {
                ("p", "a"): pl.Var("p"),
                ("init", "a"): pl.Not(pl.Var("p")),
            },
            pl.Var("init"),
            {"p"},
        )
        # value(p, a^k) = True for all k >= 0 (final, self-loop).
        # init on a·w = not p(w) = False; init on ε = False.
        assert not afa.accepts("")
        assert not afa.accepts("a")
        assert not afa.accepts("aa")

    def test_vector_for_empty_word(self, conjunction_afa):
        assert conjunction_afa.vector_for("") == {"emp", "noc"}

    def test_missing_transition_is_false(self):
        afa = AFA({"q"}, {"a"}, {}, pl.Var("q"), {"q"})
        assert afa.accepts("")
        assert not afa.accepts("a")

    def test_validation(self):
        with pytest.raises(ReproError):
            AFA({"q"}, {"a"}, {("q", "a"): pl.Var("zzz")}, pl.Var("q"), set())

    def test_class_members_share_their_representatives_row(self):
        q = pl.Var("q")
        afa = AFA({"q"}, {"a", "b", "c"}, {("q", "a"): q}, q, {"q"}, {"a": "a", "b": "a", "c": "c"})
        assert afa.transition("q", "b") is q and afa.transition("q", "c") is pl.FALSE
        assert afa.accepts("ab") and not afa.accepts("ac")
        assert afa._engine().reps == ("a", "c")

    @pytest.mark.parametrize(
        "classes, transitions",
        [
            ({"a": "a"}, {}),  # the map misses symbol b
            ({"a": "b", "b": "a"}, {}),  # representative b maps to a
            ({"a": "a", "b": "a"}, {("q", "b"): pl.Var("q")}),  # b is no representative
        ],
        ids=["missing-symbol", "representative-elsewhere", "non-representative-row"],
    )
    def test_class_map_validation(self, classes, transitions):
        with pytest.raises(ReproError):
            AFA({"q"}, {"a", "b"}, transitions, pl.Var("q"), set(), classes)


class TestDecisionProcedures:
    def test_counter_witness_is_exponential(self):
        for bits in (1, 2, 3, 4):
            afa = afa_counter(bits)
            witness = afa.accepting_witness()
            assert witness is not None
            assert len(witness) == 2**bits

    def test_emptiness(self):
        afa = AFA({"q"}, {"a"}, {("q", "a"): pl.Var("q")}, pl.Var("q"), set())
        assert afa.is_empty()

    def test_witness_accepted(self, conjunction_afa):
        witness = conjunction_afa.accepting_witness()
        assert witness is not None
        assert conjunction_afa.accepts(witness)

    def test_equivalence_reflexive(self, conjunction_afa):
        assert conjunction_afa.equivalent_to(conjunction_afa)

    def test_difference_witness(self, conjunction_afa):
        other = AFA(
            conjunction_afa.states,
            conjunction_afa.alphabet,
            conjunction_afa.transitions,
            pl.FALSE,
            conjunction_afa.finals,
        )
        witness = conjunction_afa.difference_witness(other)
        assert witness is not None
        assert conjunction_afa.accepts(witness) != other.accepts(witness)

    def test_alphabet_mismatch(self, conjunction_afa):
        other = AFA({"q"}, {"z"}, {}, pl.Var("q"), set())
        with pytest.raises(ReproError):
            conjunction_afa.equivalent_to(other)


class TestConversions:
    def test_from_nfa_preserves_language(self):
        nfa = parse_regex("a (b|c)* d").to_nfa().determinize().to_nfa()
        afa = AFA.from_nfa(nfa)
        for n in range(0, 5):
            for word in itertools.product("abcd", repeat=n):
                assert afa.accepts(word) == nfa.accepts(word)

    def test_to_nfa_preserves_language(self, conjunction_afa):
        nfa = conjunction_afa.to_nfa()
        for n in range(0, 5):
            for word in itertools.product("abc", repeat=n):
                assert nfa.accepts(word) == conjunction_afa.accepts(word), word

    def test_to_dfa_reads_reversed(self, conjunction_afa):
        dfa = conjunction_afa.to_dfa()
        for n in range(0, 4):
            for word in itertools.product("abc", repeat=n):
                assert dfa.accepts(tuple(reversed(word))) == conjunction_afa.accepts(
                    word
                )

    def test_epsilon_nfa_rejected(self):
        from repro.automata.nfa import NFA

        nfa = NFA({0, 1}, {"a"}, {(0, None): {1}}, {0}, {1})
        with pytest.raises(ReproError):
            AFA.from_nfa(nfa)
