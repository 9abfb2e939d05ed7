"""Tests for the AFA → SWS(PL, PL) reduction (PSPACE lower bound)."""

import itertools

import pytest

from repro.analysis import nonempty_pl
from repro.automata import parse_regex
from repro.automata.afa import AFA
from repro.core.classes import SWSClass, classify
from repro.core.pl_semantics import alphabet_for, language_value, to_afa
from repro.core.run import run_pl
from repro.logic import pl
from repro.reductions.afa_to_sws import afa_to_sws, encode_afa_word
from repro.workloads.random_sws import random_pl_sws
from repro.workloads.scaling import afa_counter


class TestWordLevelAgreement:
    @pytest.mark.slow
    def test_counter_family(self):
        for bits in (1, 2, 3):
            afa = afa_counter(bits)
            sws = afa_to_sws(afa)
            for m in range(0, 2**bits + 3):
                word = ["a"] * m
                assert afa.accepts(word) == run_pl(
                    sws, encode_afa_word(word)
                ).output, (bits, m)

    def test_regex_derived_afa(self):
        nfa = parse_regex("a (b|c)* d").to_nfa().determinize().to_nfa()
        afa = AFA.from_nfa(nfa)
        sws = afa_to_sws(afa)
        for n in range(0, 4):
            for word in itertools.product("abcd", repeat=n):
                assert afa.accepts(word) == run_pl(
                    sws, encode_afa_word(list(word))
                ).output, word

    def test_alternating_afa(self):
        # Conjunction of two conditions (see tests/automata/test_afa.py).
        endb, noc, emp = pl.Var("endb"), pl.Var("noc"), pl.Var("emp")
        afa = AFA(
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
        sws = afa_to_sws(afa)
        for n in range(0, 4):
            for word in itertools.product("abc", repeat=n):
                assert afa.accepts(word) == run_pl(
                    sws, encode_afa_word(list(word))
                ).output, word

    @pytest.mark.parametrize("seed", range(3))
    def test_translated_pl_service(self, seed):
        """A translated AFA carries letter classes; the reduction reads
        every symbol through them."""
        sws = random_pl_sws(seed, n_states=3, n_variables=2, recursive=seed % 2 == 0)
        reduced = afa_to_sws(to_afa(sws))
        for n in range(0, 4):
            for word in itertools.product(alphabet_for(sws), repeat=n):
                expected = language_value(sws, list(word))
                assert run_pl(reduced, encode_afa_word(list(word))).output == expected


class TestReductionProperties:
    def test_nonemptiness_agreement(self):
        for bits in (1, 2):
            afa = afa_counter(bits)
            sws = afa_to_sws(afa)
            assert nonempty_pl(sws).is_yes == (not afa.is_empty())

    def test_empty_afa_gives_empty_sws(self):
        afa = AFA({"q"}, {"a"}, {("q", "a"): pl.Var("q")}, pl.Var("q"), set())
        sws = afa_to_sws(afa)
        assert nonempty_pl(sws).is_no

    def test_target_class_recursive(self):
        sws = afa_to_sws(afa_counter(2))
        assert classify(sws) is SWSClass.PL_PL

    def test_polynomial_size(self):
        sizes = [len(afa_to_sws(afa_counter(bits)).states) for bits in (2, 4, 8)]
        # Linear in the AFA state count: start + (bits+1) AFA states +
        # |Σ|+1 indicators = bits + 4.
        assert sizes == [2 + 4, 4 + 4, 8 + 4]

    def test_garbage_input_rejected(self):
        afa = afa_counter(1)
        sws = afa_to_sws(afa)
        garbage = [frozenset({"sym_a", "hash"})]
        assert not run_pl(sws, garbage).output
