"""Ground truth of the benchmark's generators, checked by brute force.

The benchmark trusts two facts about its inputs when it checks answers:
a pattern counter's shortest accepted input has length p + 1, and a menu
built empty accepts nothing.  Both are established here with the
reference semantics ``repro.core.run.run_pl`` alone.
"""

import itertools
import random

import pytest

from repro.analysis import nonempty_pl
from repro.core.run import run_pl
from repro.workloads.pl_services import HASH, encode_letters
from workloads import ALPHABET, WORD_LENGTH, distinct_words, menu, pattern_counter


@pytest.mark.parametrize("bits", [1, 2, 3, 4])
def test_pattern_counter_shortest_witness_is_p_plus_one(bits):
    for p in range(1 << bits):
        sws = pattern_counter(bits, p)
        # No input variables: the only word of length n is n empty messages.
        outputs = [run_pl(sws, [frozenset()] * n).output for n in range(p + 2)]
        assert outputs == [False] * (p + 1) + [True], p
        assert len(nonempty_pl(sws).witness) == p + 1


def _accepted(sws):
    """Every word up to the menu's session length that ``sws`` accepts.

    Guards test one letter variable each and forbid the others, so the
    one-hot messages plus the empty message cover every way to satisfy
    or fail them.
    """
    symbols = [frozenset()] + encode_letters(list(ALPHABET) + [HASH])
    return {
        word
        for length in range(WORD_LENGTH + 2)
        for word in itertools.product(symbols, repeat=length)
        if run_pl(sws, list(word)).output
    }


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_menu_built_empty_accepts_nothing(seed):
    words = distinct_words(random.Random(seed), 2 + seed)
    assert _accepted(menu(words, empty=True)) == set()
    # The same words built normally: exactly the words, each with '#'.
    expected = {tuple(encode_letters(list(w) + [HASH])) for w in words}
    assert _accepted(menu(words)) == expected
