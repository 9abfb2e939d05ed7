"""The five workloads of the end-to-end benchmark.

Each workload turns ``--seed`` into a deterministic request stream,
serves it through :mod:`repro.serve` and, *after* the timed phase,
checks every answer against ground truth that does not come from the
compiled AFA search:

* a pattern counter answers YES with a shortest witness of length p + 1;
* a menu's YES witness is replayed through the reference semantics
  :func:`repro.core.run.run_pl`, and a menu built empty must answer NO;
* an edited menu version is non-empty by construction; its witness is
  replayed through ``run_pl`` and an evenly spread sample of versions is
  re-solved from scratch with ``nonempty_pl``.

A workload object lives in one fresh interpreter (see ``phase.py``):
``generate`` builds inputs (excluded from set-up time), ``open`` and
``warm_up`` make up the rest of set-up, ``prepare(k)`` builds request
``k`` outside the timed region and ``serve`` is the timed request.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Iterator

from repro.analysis import nonempty_pl
from repro.core.run import run_pl
from repro.core.sws import MSG, SWS, SynthesisRule, TransitionRule
from repro.logic import pl
from repro.serve import AnswerCache, SolverService
from repro.workloads.editing import replace_rule
from repro.workloads.pl_services import HASH, exactly, union_word_service
from repro.workloads.scaling import pl_counter_sws

#: Letters of every menu word; with the delimiter that is five input
#: variables, so a menu's AFA alphabet has 2^5 = 32 symbols.
ALPHABET = "abcd"

#: The letter an alphabet-growing edit introduces (64 symbols).
EXTRA_LETTER = "e"

#: Letters per menu word, before the delimiter.
WORD_LENGTH = 4

#: Jobs per request of the ``serve_mix_*`` workloads.
WAVE = 24

#: Popularity of the serve_mix instance of rank r is proportional to
#: (r + 1) ** -ZIPF_EXPONENT.  At 1.4 misses keep arriving all run long
#: (about 200 distinct instances in the first 2,000 jobs, 480 in 15,000)
#: while hits still dominate.
ZIPF_EXPONENT = 1.6

_GOLDEN = 0.6180339887498949


# -- instance generators -------------------------------------------------------


def pattern_counter(bits: int, p: int) -> SWS:
    """``pl_counter_sws(bits)`` whose root accepts remaining length p only.

    The root synthesis becomes the conjunction of the literals ``±A_i``
    spelling ``p`` (``A_{i+1}`` reads counter bit ``i``), so the shortest
    accepted input has length ``p + 1`` and every pattern has its own
    fingerprint.
    """
    base = pl_counter_sws(bits)
    literals = [
        pl.Var(f"A{i + 1}") if p >> i & 1 else pl.Not(pl.Var(f"A{i + 1}"))
        for i in range(bits)
    ]
    return replace_rule(
        base,
        base.start,
        synthesis=SynthesisRule(pl.conjoin(literals)),
        name=f"pattern_{bits}_{p}",
    )


def patterns(bits: int, rng: random.Random, upper_half: bool = True) -> Iterator[int]:
    """Distinct patterns from ``[0, 2^bits)``, or from its upper half.

    A golden-ratio stride (odd, so a bijection modulo the power-of-two
    range) spreads every prefix evenly over the range: the work mix of a
    run barely depends on the seed, which only picks the offset.
    """
    size = 1 << (bits - 1) if upper_half else 1 << bits
    stride = int(size * _GOLDEN) | 1
    offset = rng.randrange(size)
    for j in range(size):
        yield (1 << bits) - size + (offset + j * stride) % size


def spread(k: int, lo: int, hi: int, phase: float) -> int:
    """The ``k``-th value of an evenly spread sequence over ``[lo, hi]``."""
    return lo + int((phase + k * _GOLDEN) % 1.0 * (hi - lo + 1))


def distinct_words(rng: random.Random, count: int) -> list[str]:
    """``count`` distinct words of :data:`WORD_LENGTH` letters."""
    size = len(ALPHABET)
    codes = rng.sample(range(size**WORD_LENGTH), count)
    return [
        "".join(ALPHABET[code // size**i % size] for i in range(WORD_LENGTH))
        for code in codes
    ]


def menu(words: list[str], empty: bool = False, name: str = "menu") -> SWS:
    """A union of one word chain per word; ``empty`` kills every branch guard."""
    sws = union_word_service([list(w) + [HASH] for w in words], ALPHABET, name=name)
    if empty:
        root = sws.transitions[sws.start]
        sws = replace_rule(
            sws,
            sws.start,
            rule=TransitionRule([(target, pl.FALSE) for target, _ in root.targets]),
        )
    return sws


# -- instances with known answers ----------------------------------------------


@dataclass
class Counter:
    bits: int
    p: int
    sws: SWS

    def check(self, answer: Any) -> bool:
        return answer.is_yes and len(answer.witness) == self.p + 1


@dataclass
class Menu:
    words: list[str]
    empty: bool
    sws: SWS

    def check(self, answer: Any) -> bool:
        if self.empty:
            return answer.is_no
        return answer.is_yes and run_pl(self.sws, answer.witness).output


# -- the workloads --------------------------------------------------------------


class Workload:
    """One serving scenario; see the module docstring for the protocol."""

    name = ""
    pool_workers = 0

    def __init__(self, seed: int, work_dir: str, smoke: bool) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.smoke = smoke
        self.rng = random.Random(seed)
        self.service: SolverService | None = None

    def generate(self) -> None:
        pass

    def open(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        pass

    def prepare(self, k: int) -> Any:
        raise NotImplementedError

    def serve(self, request: Any) -> list[Any]:
        raise NotImplementedError

    def jobs(self, request: Any) -> int:
        return 1

    def midpoint(self) -> None:
        """Called once, halfway through the measured phase."""

    def verify(self, records: list[tuple[Any, list[Any]]]) -> int:
        """How many answers in ``records`` are wrong (UNKNOWN counts)."""
        raise NotImplementedError

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None


class _ColdWorkload(Workload):
    """One fresh instance per request on an in-memory, in-process service."""

    def open(self) -> None:
        self.service = SolverService(cache=AnswerCache())

    def serve(self, instance: Any) -> list[Any]:
        return [self.service.submit("nonempty_pl", instance.sws).result()]

    def warm_up(self) -> None:
        for instance in self.warm:
            self.serve(instance)

    def verify(self, records: list[tuple[Any, list[Any]]]) -> int:
        return sum(
            not instance.check(answer)
            for instance, answers in records
            for answer in answers
        )


class SearchCold(_ColdWorkload):
    """Pattern counters, bits 14, 15, 15 in turn: the AFA vector search dominates.

    With a third of the jobs at bits 13, translation plus compilation took
    over 10% of the job.  The rotation keeps p50 and p90 inside the bits-15
    jobs rather than on the edge between two bit widths.
    """

    name = "search_cold"

    def generate(self) -> None:
        self.bits = (5, 6, 6) if self.smoke else (14, 15, 15)
        self.patterns = {b: patterns(b, self.rng) for b in sorted(set(self.bits))}
        warm_bits = self.bits[0] - 2
        self.warm = [Counter(warm_bits, p, pattern_counter(warm_bits, p)) for p in (3, 5)]

    def prepare(self, k: int) -> Counter:
        bits = self.bits[k % len(self.bits)]
        p = next(self.patterns[bits])
        return Counter(bits, p, pattern_counter(bits, p))


class BuildCold(_ColdWorkload):
    """Menus of 32-64 branches, a quarter built empty: translation dominates."""

    name = "build_cold"

    def generate(self) -> None:
        self.branches = (3, 6) if self.smoke else (32, 64)
        self.phase = self.rng.random()
        words = distinct_words(random.Random(-self.seed - 1), 8)
        self.warm = [
            Menu(words, empty, menu(words, empty, name="warm")) for empty in (False, True)
        ]

    def prepare(self, k: int) -> Menu:
        branches = spread(k, *self.branches, self.phase)
        words = distinct_words(self.rng, branches)
        empty = k % 4 == 3
        return Menu(words, empty, menu(words, empty, name=f"build_{k}"))


class ServeMix(Workload):
    """Zipf waves over ~600 small instances on a store-backed service."""

    name = "serve_mix_inline"

    def generate(self) -> None:
        if self.smoke:
            count, bits, branches = 40, (5, 6, 7), (2, 4)
        else:
            count, bits, branches = 600, (8, 9, 10), (8, 16)
        # The kind and size of the instance at each popularity rank are
        # fixed, so the cost profile of the traffic does not depend on the
        # seed; the seed picks the patterns (any, for small jobs), the
        # words and the draws.
        counters = {b: patterns(b, self.rng, upper_half=False) for b in bits}
        instances: list[Any] = []
        for rank in range(count):
            if rank % 10 == 9:
                size = branches[0] + rank // 10 % (branches[1] - branches[0] + 1)
                words = distinct_words(self.rng, size)
                instances.append(Menu(words, False, menu(words, name=f"mix_{rank}")))
            else:
                b = bits[rank % len(bits)]
                p = next(counters[b])
                instances.append(Counter(b, p, pattern_counter(b, p)))
        self.instances = instances
        weights = [(rank + 1) ** -ZIPF_EXPONENT for rank in range(count)]
        self.cum_weights = list(itertools.accumulate(weights))
        warm_bits = bits[0] - 1
        self.warm = [
            Counter(warm_bits, p, pattern_counter(warm_bits, p))
            for p in range(1 << (warm_bits - 1), 1 << warm_bits)
        ][:WAVE]
        self.cache_dir = f"{self.work_dir}/{self.name}-cache"

    def open(self) -> None:
        self.service = SolverService(workers=self.pool_workers, cache_dir=self.cache_dir)

    def warm_up(self) -> None:
        self.serve(self.warm)

    def prepare(self, k: int) -> list[Any]:
        return self.rng.choices(self.instances, cum_weights=self.cum_weights, k=WAVE)

    def serve(self, wave: list[Any]) -> list[Any]:
        handles = [self.service.submit("nonempty_pl", item.sws) for item in wave]
        self.service.drain()
        return [handle.result() for handle in handles]

    def jobs(self, wave: list[Any]) -> int:
        return len(wave)

    def midpoint(self) -> None:
        """Restart the service on the same store: memory tier and pool go cold."""
        self.close()
        self.open()

    def verify(self, records: list[tuple[Any, list[Any]]]) -> int:
        # Cache hits hand back the same answer object; check each once.
        seen: dict[tuple[int, int], bool] = {}
        wrong = 0
        for wave, answers in records:
            for item, answer in zip(wave, answers):
                key = (id(item), id(answer))
                if key not in seen:
                    seen[key] = item.check(answer)
                wrong += not seen[key]
        return wrong


class ServeMixPool(ServeMix):
    """The same traffic and seed through a two-worker process pool."""

    name = "serve_mix_pool"
    pool_workers = 2


# -- edit_recheck ---------------------------------------------------------------

#: Edit kinds per session, repeated.  ``full`` alternately grows the
#: alphabet by :data:`EXTRA_LETTER` and shrinks it back; the edit after a
#: ``full`` re-translates the base automaton inside its re-check.
EDIT_CYCLE = ("full", "replay", "replay", "warm", "replay", "replay", "warm", "replay")

_GUARDS: dict[tuple[str, str], pl.Formula] = {}


def _guard(letter: str) -> pl.Formula:
    alphabet = ALPHABET + EXTRA_LETTER if letter == EXTRA_LETTER else ALPHABET
    key = (letter, alphabet)
    if key not in _GUARDS:
        _GUARDS[key] = exactly(letter, alphabet)
    return _GUARDS[key]


@dataclass
class Edit:
    """One staged edit: the session, the new version and its words."""

    session: "MenuSession"
    sws: SWS
    words: list[str]
    grown: tuple[int, int] | None


@dataclass
class MenuSession:
    """A :class:`repro.delta.Session` on a menu plus the client's model of it.

    ``grown`` is the (branch, position) of the guard that uses
    :data:`EXTRA_LETTER`, while the alphabet is grown.
    """

    delta: Any
    words: list[str]
    witness: tuple
    grown: tuple[int, int] | None = None

    def witness_branch(self) -> int:
        """The one branch spelling the current witness (words stay distinct)."""
        for branch, word in enumerate(self.words):
            if all(
                _guard(letter).evaluate(symbol)
                for letter, symbol in zip(word, self.witness)
            ):
                return branch
        raise AssertionError("no branch spells the current witness")

    def plan(self, kind: str, rng: random.Random) -> Edit:
        """Build the next version by retargeting one guard (outside timing).

        ``replay`` edits a branch other than the witness's, ``warm`` the
        witness's own branch, ``full`` grows or shrinks the alphabet.
        Words are kept distinct where possible, so exactly one branch
        spells each witness and a ``warm`` edit really invalidates it.
        """
        hit = self.witness_branch()
        if kind == "full" and self.grown is not None:
            spots, letters = [self.grown], ALPHABET
        else:
            letters = EXTRA_LETTER if kind == "full" else ALPHABET
            branches = [hit] if kind == "warm" else [b for b in range(len(self.words)) if b != hit]
            spots = [
                (rng.choice(branches), rng.randrange(1, WORD_LENGTH)) for _ in range(16)
            ]
            spots = [spot for spot in spots if spot != self.grown]
        for branch, position in spots:
            word = self.words[branch]
            options = [
                word[:position] + letter + word[position + 1 :]
                for letter in letters
                if letter != word[position]
            ]
            fresh = [w for w in options if w not in self.words]
            if fresh:
                break
        new_word = rng.choice(fresh or options)
        grown = self.grown
        if kind == "full":
            grown = None if self.grown else (branch, position)
        state = f"b{branch}_w{position}"
        current = self.delta.current
        target, _ = current.transitions[state].targets[0]
        guard = (pl.Var(MSG) & _guard(new_word[position])).simplify()
        sws = replace_rule(current, state, rule=TransitionRule([(target, guard)]))
        words = list(self.words)
        words[branch] = new_word
        return Edit(self, sws, words, grown)

    def adopt(self, edit: Edit, answer: Any) -> None:
        self.words = edit.words
        self.grown = edit.grown
        if answer.is_yes:
            self.witness = tuple(answer.witness)


class EditRecheck(Workload):
    """Edit + re-check requests on open sessions over 64-128-branch menus."""

    name = "edit_recheck"

    def generate(self) -> None:
        sizes = (4, 6) if self.smoke else (64, 85, 107, 128)
        self.menus = [distinct_words(self.rng, size) for size in sizes]
        self.warm_words = distinct_words(random.Random(-self.seed - 1), 8)
        self.cache_dir = f"{self.work_dir}/{self.name}-cache"

    def _open_session(self, words: list[str], name: str) -> MenuSession:
        session = self.service.session(menu(words, name=name))
        answer = session.check()
        return MenuSession(session, list(words), tuple(answer.witness))

    def open(self) -> None:
        self.service = SolverService(cache_dir=self.cache_dir)
        self.sessions = [
            self._open_session(words, f"session_{i}") for i, words in enumerate(self.menus)
        ]

    def warm_up(self) -> None:
        warm = self._open_session(self.warm_words, "warm")
        rng = random.Random(-self.seed - 2)
        for kind in ("replay", "warm", "full", "full"):
            self.serve(warm.plan(kind, rng))

    def prepare(self, k: int) -> Edit:
        session = self.sessions[k % len(self.sessions)]
        kind = EDIT_CYCLE[k // len(self.sessions) % len(EDIT_CYCLE)]
        return session.plan(kind, self.rng)

    def serve(self, edit: Edit) -> list[Any]:
        edit.session.delta.edit(edit.sws)
        answer = edit.session.delta.recheck().answer
        edit.session.adopt(edit, answer)
        return [answer]

    def verify(self, records: list[tuple[Any, list[Any]]]) -> int:
        wrong = sum(
            not (answer.is_yes and run_pl(edit.sws, answer.witness).output)
            for edit, answers in records
            for answer in answers
        )
        # The reference search on an evenly spread sample of versions.
        step = max(1, len(records) // 6)
        for edit, answers in records[::step]:
            wrong += nonempty_pl(edit.sws).verdict != answers[0].verdict
        return wrong


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (SearchCold, BuildCold, ServeMix, ServeMixPool, EditRecheck)
}
