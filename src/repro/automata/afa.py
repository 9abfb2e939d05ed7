"""Alternating finite automata (boolean automata).

Theorem 4.1(3) ties SWS(PL, PL) to AFA: the PSPACE lower bound on
non-emptiness is by expressing AFA in SWS(PL, PL) "in ptime", and the
upper bound checks non-emptiness "along the same lines as AFA non-emptiness
checking".  This module implements AFA with arbitrary boolean transition
conditions (alternation *and* negation) and the backward valuation-vector
semantics that both AFA decision procedures and the SWS(PL, PL) procedures
in :mod:`repro.core.pl_semantics` share:

For a word ``w`` read *suffix-first*, the valuation vector ``V_w`` assigns
each state ``q`` the truth of "the run from q accepts w".  ``V_ε`` is the
final-state indicator; ``V_{a·w}(q) = δ(q, a)`` evaluated on ``V_w``.  The
automaton accepts ``w`` iff the initial condition evaluates to true on
``V_w``.  Reachability over the (finitely many) vectors decides emptiness
in exponential time / polynomial space — the classical AFA bound.

**Letter classes.**  Every automaton carries a *class map* from each
symbol to its class representative, and ``transitions`` hold rows for
representatives only.  Hand-built and NFA-derived automata get the
identity map; :func:`repro.core.pl_semantics.to_afa` hands over the
row-equality quotient of its 2^|vars| assignments, so an SWS-derived
automaton is built, validated and compiled per class.

**Compiled hot path.**  The searches run on a compiled engine
(:class:`_CompiledAFA`): states map to bit positions, valuation vectors are
int bitsets, and one representative per class of symbols with identical
rows is explored — the class map, with any representatives whose rows
still coincide merged.  Each class row is analysed once, on first use,
into a :class:`repro.logic.pl.RowPlan`.  Code is generated only when it
is about to run: the witness search and the sweep BFS (each with every
class's plan inlined) on their first call.  Single-step users
(``pre_step``, witness replay, the delta re-check) read a class's
:func:`repro.logic.pl.row_function`, which evaluates the plan's literal
moves directly and compiles only its compound entries.  Generated code
lives on its engine and dies with its automaton.  An automaton patched
against a root automaton (:class:`_PatchedRows`) gets the root's engine
with its dirty rows patched in.  Public
results (vectors, witnesses) are unchanged; the :func:`ast_fallback`
context restores the interpreted AST path for cross-validation and
before/after benchmarks.

**Determinism.**  Symbols are always explored in a canonical order
(:func:`symbol_sort_key`) that does not depend on ``PYTHONHASHSEED`` —
``repr`` of a frozenset does, so sorting by ``repr`` (the old behaviour)
made witness words differ across interpreter runs.
"""

from __future__ import annotations

import itertools
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from repro._stats import STATS
from repro.automata.dfa import DFA
from repro.automata.nfa import NFA
from repro.errors import ReproError
from repro.guard import checkpoint_callable, register_span
from repro.logic import pl
from repro.obs import span

State = str
Symbol = Hashable

Vector = frozenset[State]
"""A valuation vector, represented as the set of states valued true."""

_USE_COMPILED = True


@contextmanager
def ast_fallback() -> Iterator[None]:
    """Temporarily run all AFA procedures on the interpreted AST path.

    Used by cross-validation tests and the before/after benchmarks; the
    compiled and interpreted paths must agree on every result.
    """
    global _USE_COMPILED
    previous = _USE_COMPILED
    _USE_COMPILED = False
    try:
        yield
    finally:
        _USE_COMPILED = previous


def symbol_sort_key(symbol: Symbol) -> tuple:
    """A canonical, hash-seed-independent sort key for alphabet symbols.

    ``repr`` of a ``frozenset`` enumerates elements in hash order, which
    varies with ``PYTHONHASHSEED`` — any search ordered by it returns
    different (equally valid) witnesses on different runs.  This key orders
    sets by their sorted element keys instead, recursively.
    """
    if isinstance(symbol, (frozenset, set)):
        return (1, tuple(sorted(symbol_sort_key(e) for e in symbol)))
    if isinstance(symbol, tuple):
        return (2, tuple(symbol_sort_key(e) for e in symbol))
    return (0, (type(symbol).__name__, repr(symbol)))


def _canonical_state_name(state) -> str:
    """A deterministic string name for (possibly subset-valued) states.

    ``str(frozenset)`` follows hash-table iteration order, so two *equal*
    frozensets built in different orders can stringify differently — the
    same determinized subset state would then get two distinct names, and
    a transition condition could mention a "state" that is not in the
    state set.  Sets are named by their sorted element names instead.
    """
    if isinstance(state, (frozenset, set)):
        inner = ", ".join(sorted(_canonical_state_name(e) for e in state))
        return "{" + inner + "}"
    if isinstance(state, tuple):
        return "(" + ", ".join(_canonical_state_name(e) for e in state) + ")"
    return str(state)


def _reconstruct(parents: Mapping, node, symbols: Sequence[Symbol]) -> tuple:
    """Rebuild a witness word from BFS parent links.

    ``parents[n]`` is ``(index into symbols, predecessor)`` or ``None`` at
    the start node; since ``witness(next) = (symbol,) + witness(prev)``,
    walking the chain emits the word front-to-back — O(length), where the
    old tuple-prepend scheme cost O(length²) per BFS branch.
    """
    word: list = []
    link = parents[node]
    while link is not None:
        idx, node = link
        word.append(symbols[idx])
        link = parents[node]
    return tuple(word)


def _class_exprs(gen: "pl._MaskCodegen", plans: Sequence["pl.RowPlan"]) -> list[str]:
    """One fused mask→mask expression per transition-row class.

    The expressions share hoisted temps through the common ``gen``, so
    subformulas shared across classes evaluate once per BFS iteration.
    """
    for plan in plans:
        gen.count_row(plan.compound)
    return [gen.row(plan) for plan in plans]


def _exec_source(name: str, lines: list[str]) -> Callable:
    namespace: dict = {"_deque": deque}
    exec(compile("\n".join(lines) + "\n", f"<afa.{name}>", "exec"), namespace)
    return namespace[name]


#: The generated BFS functions and their signatures.
_SEARCHER_SIGNATURES = {
    "_search": "_search(start, accepting, initial, ckpt)",
    "_sweep": "_sweep(start, ckpt)",
}


def _bfs_head(signature: str, node: str) -> list[str]:
    """A generated BFS up to the pop of ``node`` in its loop body.

    The guard checkpoint is batched: one callback per 256 pops (plus one
    on entry, so tiny searches still hit a checkpoint) — the masked test
    is the only per-iteration overhead, preserving the compiled speedup.
    """
    return [
        f"def {signature}:",
        "    parents = {start: None}",
        "    queue = _deque((start,))",
        "    append = queue.append",
        "    popleft = queue.popleft",
        "    n = 0",
        "    ckpt(0, queue, parents)",
        "    while queue:",
        f"        {node} = popleft()",
        "        n += 1",
        "        if not n & 255:",
        "            ckpt(n, queue, parents)",
    ]


def _compile_searchers(engine: "_CompiledAFA", name: str) -> Callable:
    """Generate one whole BFS, ``_search`` (witness) or ``_sweep``, as a function.

    Inlining every transition row into the loop body removes all per-step
    Python function calls — the search runs as one compiled code object
    over int bitsets.  Parent links store the symbol-*class index*;
    :func:`_reconstruct` maps them back to representative symbols.
    Each kind is generated only when first asked for: a non-emptiness
    check never pays for the sweep.  The function is kept by its engine
    only, so it dies with its automaton.
    """
    gen = pl._MaskCodegen(engine.index)
    exprs = _class_exprs(gen, [engine.plans[rep] for rep in engine.reps])
    witness = name == "_search"
    lines = _bfs_head(_SEARCHER_SIGNATURES[name], "v")
    lines += ["    " + line for line in gen.lines]
    for idx, expr in enumerate(exprs):
        lines += [
            f"        nxt = {expr}",
            "        if nxt not in parents:",
            f"            parents[nxt] = ({idx}, v)",
        ]
        if witness:
            lines += [
                "            if initial(nxt) == accepting:",
                "                return parents, nxt, n",
            ]
        lines.append("            append(nxt)")
    lines.append("    return parents, None, n" if witness else "    return parents, n")
    return _exec_source(name, lines)


def generic_search(
    rows: Sequence[tuple[int, Callable[[int], int]]],
    start: int,
    accepting: bool | None,
    initial: Callable[[int], bool],
    ckpt: Callable[..., None],
) -> tuple[dict, int | None, int]:
    """Interpreted BFS over parameterized transition rows.

    Same contract as the generated ``_search`` / ``_sweep`` (parent links
    carry the symbol-*class index* paired with each row; returns
    ``(parents, hit_or_None, n)``, with ``accepting=None`` meaning a full
    sweep) but taking the per-class row callables as data instead of
    code-generating the loop body.  :mod:`repro.delta` uses it to re-check
    an edited automaton over *patched* rows without paying searcher
    codegen, and the interpreted AFA path over per-symbol AST rows.
    """
    parents: dict = {start: None}
    queue = deque((start,))
    n = 0
    append = queue.append
    popleft = queue.popleft
    ckpt(0, queue, parents)
    while queue:
        v = popleft()
        n += 1
        if not n & 255:
            ckpt(n, queue, parents)
        for idx, row in rows:
            nxt = row(v)
            if nxt not in parents:
                parents[nxt] = (idx, v)
                if accepting is not None and initial(nxt) == accepting:
                    return parents, nxt, n
                append(nxt)
    return parents, None, n


def _compile_diff_search(
    mine: "_CompiledAFA", theirs: "_CompiledAFA"
) -> tuple[Callable, tuple[Symbol, ...]]:
    """Generate the joint difference-witness BFS over mask *pairs*.

    Symbol dedup here is joint: two symbols collapse only when they lie in
    one class of *both* engines, i.e. induce identical rows in both
    automata.  Both automata's rows inline into one loop body (argument
    ``v`` / temps ``a*`` for ``mine``, ``w`` / ``b*`` for ``theirs``).
    """
    seen: set[tuple] = set()
    reps: list[Symbol] = []
    plans_mine: list[pl.RowPlan] = []
    plans_theirs: list[pl.RowPlan] = []
    for symbol in sorted(mine.alphabet, key=symbol_sort_key):
        key = (mine.rep_of[symbol], theirs.rep_of[symbol])
        if key in seen:
            continue
        seen.add(key)
        reps.append(symbol)
        plans_mine.append(mine.plans[key[0]])
        plans_theirs.append(theirs.plans[key[1]])
    gen_a = pl._MaskCodegen(mine.index, arg="v", prefix="a")
    gen_b = pl._MaskCodegen(theirs.index, arg="w", prefix="b")
    exprs_a = _class_exprs(gen_a, plans_mine)
    exprs_b = _class_exprs(gen_b, plans_theirs)
    lines = _bfs_head("_dsearch(start, ia, ib, ckpt)", "pair") + [
        "        v, w = pair",
        "        if ia(v) != ib(w):",
        "            return parents, pair, n",
        *("    " + line for line in gen_a.lines),
        *("    " + line for line in gen_b.lines),
    ]
    for idx, (ea, eb) in enumerate(zip(exprs_a, exprs_b)):
        lines += [
            f"        nxt = ({ea}, {eb})",
            "        if nxt not in parents:",
            f"            parents[nxt] = ({idx}, pair)",
            "            append(nxt)",
        ]
    lines.append("    return parents, None, n")
    return _exec_source("_dsearch", lines), tuple(reps)


class _LazyRows(dict):
    """Per-class row keys, plans or functions, each built on its first lookup.

    The generated searchers inline every class's plan, so only
    single-step users (``pre_step``, :func:`patch_engine`, the delta
    re-check) read the row functions — and a witness replay reads just
    the classes its word visits.
    """

    __slots__ = ("_make",)

    def __init__(self, make: Callable[[Symbol], Any]) -> None:
        super().__init__()
        self._make = make

    def __missing__(self, rep: Symbol) -> Any:
        row = self[rep] = self._make(rep)
        return row


def _row_plans(row_keys: Mapping[Symbol, tuple], index: Mapping[State, int]) -> _LazyRows:
    """Each class's :class:`repro.logic.pl.RowPlan`, analysed from its row key on first use.

    Closes over the dicts, not an engine: no engine reference cycle.
    """
    return _LazyRows(lambda rep: pl.RowPlan(enumerate(row_keys[rep]), index))


class _CompiledAFA:
    """The compiled evaluation engine behind an :class:`AFA`.

    Built once per automaton and cached on it; holds the state→bit
    mapping, the symbol quotient (``rep_of``: the automaton's class map,
    with representatives whose rows coincide merged), and per class the
    transition row's key, its plan and its single-step function, the
    last two built on first use.  The generated searchers and the
    single-step rows read the same plans.  A root automaton's engine is
    compiled from scratch; a patched automaton's is its root's engine
    with the dirty rows patched in (:func:`patch_engine`).
    """

    __slots__ = (
        "order",
        "index",
        "final_mask",
        "initial_fn",
        "alphabet",
        "row_keys",
        "plans",
        "rep_of",
        "reps",
        "rows",
        "_search_fn",
        "_sweep_fn",
        "_diff_cache",
        "__weakref__",
    )

    def __init__(self, afa: "AFA") -> None:
        order = tuple(sorted(afa.states))
        self._layout(afa, order, {s: i for i, s in enumerate(order)})
        # One row per representative (tuple of interned formulas, one per
        # state), filled in one pass over the sparse transitions.
        rows = {rep: [pl.FALSE] * len(order) for rep in set(afa.classes.values())}
        for (state, rep), formula in afa.transitions.items():
            rows[rep][self.index[state]] = formula
        self._quotient(afa, rows)
        # Closes over the dicts, not ``self``: no engine reference cycle.
        index = self.index
        plans = self.plans = _row_plans(self.row_keys, index)
        self.rows = _LazyRows(lambda rep: pl.row_function(plans[rep], index))
        STATS.afa_compilations += 1

    def _layout(self, afa: "AFA", order: tuple[State, ...], index: dict[State, int]) -> None:
        self.order = order
        self.index = index
        self.final_mask = 0
        for state in afa.finals:
            self.final_mask |= 1 << index[state]
        self.initial_fn = pl.compile_mask(afa.initial_condition, index)
        self.alphabet = afa.alphabet
        self._search_fn: Callable | None = None
        self._sweep_fn: Callable | None = None
        self._diff_cache: dict["_CompiledAFA", tuple[Callable, tuple]] = {}

    def _quotient(self, afa: "AFA", rows: Mapping[Symbol, Sequence]) -> None:
        """Merge the representatives whose ``rows`` coincide, in canonical order.

        Identical rows induce identical pre-step functions, so only one
        representative per class needs exploring; a canonical class map
        merges nothing and is shared as is.  Interned rows group by ids:
        int tuples hash at C speed, formulas call ``Formula.__hash__``.
        """
        self.row_keys: dict[Symbol, tuple] = {}
        classes: dict[tuple, Symbol] = {}
        merged: dict[Symbol, Symbol] = {}
        for rep in sorted(rows, key=symbol_sort_key):
            row = rows[rep]
            first = classes.setdefault(tuple(map(id, row)), rep)
            if first is rep:
                self.row_keys[rep] = tuple(row)
            else:
                merged[rep] = first
        self.reps: tuple[Symbol, ...] = tuple(classes.values())
        self.rep_of: Mapping[Symbol, Symbol] = afa.classes
        if merged:
            self.rep_of = {s: merged.get(r, r) for s, r in afa.classes.items()}
        STATS.alphabet_symbols += len(self.alphabet)
        STATS.symbol_classes += len(self.reps)

    def searcher(self) -> Callable:
        """The generated witness-search BFS (built on first use)."""
        if self._search_fn is None:
            self._search_fn = _compile_searchers(self, "_search")
        return self._search_fn

    def sweeper(self) -> Callable:
        """The generated full-sweep BFS (built on first use)."""
        if self._sweep_fn is None:
            self._sweep_fn = _compile_searchers(self, "_sweep")
        return self._sweep_fn

    def diff_searcher(
        self, theirs: "_CompiledAFA"
    ) -> tuple[Callable, tuple[Symbol, ...]]:
        """The generated pair-BFS against ``theirs`` (cached per partner)."""
        cached = self._diff_cache.get(theirs)
        if cached is None:
            cached = _compile_diff_search(self, theirs)
            self._diff_cache[theirs] = cached
        return cached

    def pre_step(self, mask: int, symbol: Symbol) -> int:
        """``V_{a·w}`` from ``V_w``, both as int bitsets."""
        STATS.pre_steps += 1
        return self.rows[self.rep_of[symbol]](mask)

    def to_vector(self, mask: int) -> Vector:
        return frozenset(s for i, s in enumerate(self.order) if mask >> i & 1)

    def to_mask(self, vector: Iterable[State]) -> int:
        mask = 0
        for state in vector:
            mask |= 1 << self.index[state]
        return mask


class _PatchedRows(Mapping):
    """The transitions of an automaton patched against a root automaton.

    A *root* is an automaton whose transitions are a plain dict: a scratch
    :func:`repro.core.pl_semantics.to_afa`, or a patched automaton copied
    into a dict.  The rows of the ``dirty`` states (every state edited
    since the root) come from ``rows``; every other row is read from the
    ``root`` automaton's transitions in place.  An edit therefore copies
    the patch, never the root.  ``work`` sums the dirty-set sizes of the
    patches since the root, and ``separators`` is shared by all patches
    of one root: for a pair of class representatives, a state outside the
    dirty set on which their root rows differ, or ``None`` when only dirty
    states can separate them (the dirty set only grows until the next
    root).  ``items()`` is an iterator over the rows, read once by each
    caller.

    Only :func:`repro.core.pl_semantics.to_afa_incremental` builds one,
    and it decides when the next root is due.  A patched automaton keeps
    its root's states, alphabet and class map; its engine is the root's
    engine with the dirty rows patched in (:func:`patch_engine`).
    """

    __slots__ = ("root", "dirty", "rows", "work", "separators")

    def __init__(
        self,
        root: "AFA",
        dirty: frozenset[State],
        rows: dict[tuple[State, Symbol], pl.Formula],
        work: int,
        separators: dict[tuple[Symbol, Symbol], State | None],
    ) -> None:
        self.root = root
        self.dirty = dirty
        self.rows = rows
        self.work = work
        self.separators = separators

    def __getitem__(self, key: tuple[State, Symbol]) -> pl.Formula:
        return (self.rows if key[0] in self.dirty else self.root.transitions)[key]

    def __iter__(self) -> Iterator[tuple[State, Symbol]]:
        return (key for key, _formula in self.items())

    def __len__(self) -> int:
        return sum(1 for _key in self)

    def items(self) -> Iterator[tuple[tuple[State, Symbol], pl.Formula]]:
        dirty = self.dirty
        clean = (item for item in self.root.transitions.items() if item[0][0] not in dirty)
        return itertools.chain(clean, self.rows.items())


def patch_engine(root: _CompiledAFA, afa: "AFA") -> _CompiledAFA:
    """The engine of the patched automaton ``afa``, from its root's engine ``root``.

    Each transition-row bit depends only on its own state's formula, so a
    patched row is ``(root_row(v) & clean) | patch(v)``, where ``patch``
    is the :func:`repro.logic.pl.row_function` of the plan of the
    formulas of the states dirtied since the root: one level however
    many edits came before, and no engine but the root's and the newest
    stays alive.  Both parts are built lazily, so a replay builds only
    the classes its witness visits, and the root's rows (and the plans a
    searcher of the root was generated from) are built once for all its
    patches.  The patched engine's own plans, which only a searcher
    generated for it reads, come from its full patched row keys.

    The engine shares the root engine's state order and class quotient.
    That is sound because a patched automaton keeps its root's states and
    class map, and the class map stays the row-equality quotient of its
    rows: ``to_afa_incremental`` falls back to a scratch ``to_afa`` when an
    edit splits or merges a class.
    """
    overlay = afa.transitions
    index = root.index
    dirty = sorted(overlay.dirty)
    dirty_idx = [index[s] for s in dirty]
    clean = (1 << len(root.order)) - 1
    for i in dirty_idx:
        clean &= ~(1 << i)
    # The closures read the patch, not the automaton: an engine cached on
    # its AFA must not point back at it.
    rows = overlay.rows
    root_keys, root_rows = root.row_keys, root.rows

    def patch(rep: Symbol) -> list[tuple[int, pl.Formula]]:
        return [(i, rows.get((s, rep), pl.FALSE)) for i, s in zip(dirty_idx, dirty)]

    def make_key(rep: Symbol) -> tuple:
        key = list(root_keys[rep])
        for i, formula in patch(rep):
            key[i] = formula
        return tuple(key)

    def make_row(rep: Symbol) -> Callable[[int], int]:
        patch_row = pl.row_function(pl.RowPlan(patch(rep), index), index)
        root_row = root_rows[rep]
        return lambda v: (root_row(v) & clean) | patch_row(v)

    engine = object.__new__(_CompiledAFA)
    engine._layout(afa, root.order, index)
    engine.reps, engine.rep_of = root.reps, root.rep_of
    engine.row_keys = _LazyRows(make_key)
    engine.plans = _row_plans(engine.row_keys, index)
    engine.rows = _LazyRows(make_row)
    # Counted as `_quotient` counts, so per-job class counts stay exact.
    STATS.alphabet_symbols += len(engine.alphabet)
    STATS.symbol_classes += len(engine.reps)
    return engine


class AFA:
    """An alternating finite automaton with boolean transition conditions.

    ``classes`` maps every symbol to its class representative (default:
    the identity map); the symbols of a class share one transition row.
    ``transitions[(q, r)]`` is a propositional formula over state names
    for a representative ``r``; a missing entry means ``false`` (the run
    from ``q`` rejects on ``r``'s class).  :meth:`transition` reads it for
    any symbol.  ``initial_condition`` is a formula over state names
    evaluated on the full-word vector; for a conventional AFA it is a
    single state variable.
    """

    def __init__(
        self,
        states: Iterable[State],
        alphabet: Iterable[Symbol],
        transitions: Mapping[tuple[State, Symbol], pl.Formula],
        initial_condition: pl.Formula,
        finals: Iterable[State],
        classes: Mapping[Symbol, Symbol] | None = None,
    ) -> None:
        self.states = frozenset(states)
        self.alphabet = frozenset(alphabet)
        self.transitions = dict(transitions)
        self.initial_condition = initial_condition
        self.finals = frozenset(finals)
        self.classes = (
            {symbol: symbol for symbol in self.alphabet}
            if classes is None
            else dict(classes)
        )
        self._engine_cache: _CompiledAFA | None = None
        if not self.finals <= self.states:
            raise ReproError("final states must be states")
        if self.classes.keys() != self.alphabet:
            raise ReproError("the class map must cover exactly the alphabet")
        reps = set(self.classes.values())
        if any(self.classes.get(rep) != rep for rep in reps):
            raise ReproError("every class representative must represent itself")
        # Check each distinct state, symbol and (interned) formula once:
        # derived automata share one formula across many classes.
        unknown = {state for state, _ in self.transitions} - self.states
        if unknown:
            raise ReproError(f"transition from unknown state {unknown.pop()!r}")
        # Representatives represent themselves, so they lie in the alphabet.
        unknown = {symbol for _, symbol in self.transitions} - reps
        if unknown:
            raise ReproError(f"transition on {unknown.pop()!r}, not a class representative")
        for formula in set(self.transitions.values()):
            # Uncached: a row formula's variable set is read only here, and
            # caching it on the interned node would keep it for the process.
            stray = formula._compute_variables() - self.states
            if stray:
                raise ReproError(
                    f"transition condition mentions non-states {sorted(stray)}"
                )
        stray = initial_condition.variables() - self.states
        if stray:
            raise ReproError(f"initial condition mentions non-states {sorted(stray)}")

    @classmethod
    def _from_validated(
        cls,
        states: frozenset,
        alphabet: frozenset,
        transitions: Mapping[tuple[State, Symbol], pl.Formula],
        initial_condition: pl.Formula,
        finals: frozenset,
        classes: dict,
    ) -> "AFA":
        """Construct without re-validating, for derived automata.

        ``__init__`` checks every transition formula against the state
        set — linear in the whole automaton, which defeats incremental
        construction (:func:`repro.core.pl_semantics.to_afa_incremental`
        patches a few recomputed rows over an already-validated root).
        Callers own the arguments: all six must already satisfy the
        ``__init__`` invariants, and the mappings/frozensets are stored
        as-is, not copied.
        """
        afa = object.__new__(cls)
        afa.states = states
        afa.alphabet = alphabet
        afa.transitions = transitions
        afa.initial_condition = initial_condition
        afa.finals = finals
        afa.classes = classes
        afa._engine_cache = None
        return afa

    def transition(self, state: State, symbol: Symbol) -> pl.Formula:
        """``δ(state, symbol)``, read through the symbol's class."""
        return self.transitions.get(
            (state, self.classes.get(symbol, symbol)), pl.FALSE
        )

    def __getstate__(self) -> dict:
        # The compiled engine holds exec()-generated closures, which cannot
        # be pickled; drop it so automata round-trip through worker
        # processes (the receiver recompiles on first use).
        state = self.__dict__.copy()
        state["_engine_cache"] = None
        return state

    def _engine(self) -> _CompiledAFA:
        """The compiled engine, built on first use (a patched automaton's from its root's)."""
        engine = self._engine_cache
        if engine is None:
            if isinstance(self.transitions, _PatchedRows):
                engine = patch_engine(self.transitions.root._engine(), self)
            else:
                with span(
                    "afa.compile",
                    states=len(self.states),
                    alphabet=len(self.alphabet),
                ) as sp:
                    engine = _CompiledAFA(self)
                    sp.set(symbol_classes=len(engine.reps))
            self._engine_cache = engine
        return engine

    def _symbol_order(self) -> list[Symbol]:
        """The full alphabet in canonical (hash-seed-independent) order."""
        return sorted(self.alphabet, key=symbol_sort_key)

    # -- backward semantics -----------------------------------------------------------

    def empty_word_vector(self) -> Vector:
        """``V_ε``: exactly the final states are true."""
        return frozenset(self.finals)

    def pre_step(self, vector: Vector, symbol: Symbol) -> Vector:
        """``V_{a·w}`` from ``V_w``: evaluate every transition condition."""
        if _USE_COMPILED:
            engine = self._engine()
            return engine.to_vector(engine.pre_step(engine.to_mask(vector), symbol))
        return self._pre_step_ast(vector, symbol)

    def _pre_step_ast(self, vector: Vector, symbol: Symbol) -> Vector:
        """Interpreted reference implementation (per-state AST recursion)."""
        STATS.pre_steps += 1
        return frozenset(
            state
            for state in self.states
            if self.transition(state, symbol).evaluate(vector)
        )

    def _ast_rows(self, symbols: Sequence[Symbol]) -> list[tuple[int, Callable]]:
        """Interpreted pre-steps, one :func:`generic_search` row per symbol."""
        return [
            (i, lambda vector, symbol=symbol: self._pre_step_ast(vector, symbol))
            for i, symbol in enumerate(symbols)
        ]

    def vector_for(self, word: Sequence[Symbol]) -> Vector:
        """The valuation vector of a word (computed suffix-first)."""
        if _USE_COMPILED:
            engine = self._engine()
            mask = engine.to_mask(self.finals)
            for symbol in reversed(word):
                mask = engine.pre_step(mask, symbol)
            return engine.to_vector(mask)
        vector = self.empty_word_vector()
        for symbol in reversed(word):
            vector = self._pre_step_ast(vector, symbol)
        return vector

    def accepts(self, word: Sequence[Symbol]) -> bool:
        """Language membership."""
        if _USE_COMPILED:
            engine = self._engine()
            mask = engine.to_mask(self.finals)
            for symbol in reversed(word):
                mask = engine.pre_step(mask, symbol)
            return engine.initial_fn(mask)
        return self.initial_condition.evaluate(self.vector_for(word))

    # -- decision procedures -------------------------------------------------------------

    def reachable_vectors(self) -> dict[Vector, tuple[Symbol, ...]]:
        """All vectors reachable from ``V_ε``, with a witness suffix each.

        The witness of vector ``V`` is a word ``w`` with ``V_w = V``.  The
        search is breadth-first, so witnesses are shortest; only one symbol
        per transition-row class is explored (identical rows cannot reach
        new vectors), so witnesses use class representatives.
        """
        with span(
            "afa.reachable_vectors",
            compiled=_USE_COMPILED,
            states=len(self.states),
        ) as sp:
            vectors = self._reachable_vectors_impl()
            sp.set(vectors=len(vectors))
            return vectors

    def _reachable_vectors_impl(self) -> dict[Vector, tuple[Symbol, ...]]:
        ckpt = checkpoint_callable("afa.reachable_vectors")
        if _USE_COMPILED:
            engine = self._engine()
            parents, popped = engine.sweeper()(engine.to_mask(self.finals), ckpt)
            STATS.vectors_explored += popped
            STATS.pre_steps += popped * len(engine.reps)
            reps = engine.reps
            return {
                engine.to_vector(m): _reconstruct(parents, m, reps)
                for m in parents
            }
        order = self._symbol_order()
        parents, _, popped = generic_search(
            self._ast_rows(order), self.empty_word_vector(), None, bool, ckpt
        )
        STATS.vectors_explored += popped
        return {v: _reconstruct(parents, v, order) for v in parents}

    def is_empty(self) -> bool:
        """Emptiness via vector reachability."""
        return self.accepting_witness() is None

    def accepting_witness(self) -> tuple[Symbol, ...] | None:
        """A word in the language, or ``None`` when empty.

        Explores vectors breadth-first and stops at the first vector that
        satisfies the initial condition, so the witness is of minimal
        length among the BFS layers explored.
        """
        return self._search_witness(accepting=True)

    def rejecting_witness(self) -> tuple[Symbol, ...] | None:
        """A word *not* in the language, or ``None`` when L = Σ*.

        The dual of :meth:`accepting_witness` over the same vector space;
        used by PL validation with output ``false``.
        """
        return self._search_witness(accepting=False)

    def _search_witness(self, accepting: bool) -> tuple[Symbol, ...] | None:
        with span(
            "afa.search_witness",
            accepting=accepting,
            compiled=_USE_COMPILED,
            states=len(self.states),
        ) as sp:
            witness = self._search_witness_impl(accepting)
            sp.set(
                found=witness is not None,
                witness_length=None if witness is None else len(witness),
            )
            return witness

    def _search_witness_impl(self, accepting: bool) -> tuple[Symbol, ...] | None:
        ckpt = checkpoint_callable("afa.search_witness")
        if _USE_COMPILED:
            engine = self._engine()
            start = engine.to_mask(self.finals)
            if engine.initial_fn(start) == accepting:
                return ()
            parents, hit, popped = engine.searcher()(
                start, accepting, engine.initial_fn, ckpt
            )
            STATS.vectors_explored += popped
            STATS.pre_steps += popped * len(engine.reps)
            if hit is None:
                return None
            return _reconstruct(parents, hit, engine.reps)
        start, initial = self.empty_word_vector(), self.initial_condition.evaluate
        if initial(start) == accepting:
            return ()
        order = self._symbol_order()
        parents, hit, popped = generic_search(
            self._ast_rows(order), start, accepting, initial, ckpt
        )
        STATS.vectors_explored += popped
        return None if hit is None else _reconstruct(parents, hit, order)

    def to_dfa(self) -> DFA:
        """The *reverse-deterministic* DFA over valuation vectors.

        Vectors are states; reading symbol ``a`` maps ``V_w`` to ``V_{a·w}``
        — i.e. this DFA reads words **reversed**.  It accepts reverse(L):
        a word ``w`` is in L(self) iff ``reversed(w)`` is accepted here.
        The DFA stays over the *full* alphabet (every symbol of a collapsed
        class gets its representative's transitions).
        """
        witnesses = self.reachable_vectors()
        vectors = set(witnesses)
        transitions: dict[tuple[Vector, Symbol], Vector] = {}
        for vector in vectors:
            for symbol in self.alphabet:
                transitions[(vector, symbol)] = self.pre_step(vector, symbol)
        finals = {
            vector
            for vector in vectors
            if self.initial_condition.evaluate(vector)
        }
        return DFA(vectors, self.alphabet, transitions, self.empty_word_vector(), finals)

    def to_nfa(self) -> NFA:
        """An NFA for the (forward) language, via reversing :meth:`to_dfa`."""
        reverse_dfa = self.to_dfa()
        transitions: dict[tuple[Vector, Symbol | None], set[Vector]] = {}
        for (source, symbol), target in reverse_dfa.transitions.items():
            transitions.setdefault((target, symbol), set()).add(source)
        return NFA(
            reverse_dfa.states,
            reverse_dfa.alphabet,
            {k: frozenset(v) for k, v in transitions.items()},
            reverse_dfa.finals,
            {reverse_dfa.initial},
        )

    def equivalent_to(self, other: "AFA") -> bool:
        """Language equivalence via the product of vector spaces.

        Runs a joint BFS over pairs of vectors; the automata differ iff
        some reachable pair disagrees on the initial conditions.
        """
        if self.alphabet != other.alphabet:
            raise ReproError("equivalence requires identical alphabets")
        return self.difference_witness(other) is None

    def difference_witness(self, other: "AFA") -> tuple[Symbol, ...] | None:
        """A word accepted by exactly one of the two automata, or ``None``.

        Symbol dedup is *joint*: two symbols collapse only when they induce
        identical transition rows in both automata.
        """
        if self.alphabet != other.alphabet:
            raise ReproError("comparison requires identical alphabets")
        with span(
            "afa.difference_witness",
            compiled=_USE_COMPILED,
            states=len(self.states) + len(other.states),
        ) as sp:
            witness = self._difference_witness_impl(other)
            sp.set(
                found=witness is not None,
                witness_length=None if witness is None else len(witness),
            )
            return witness

    def _difference_witness_impl(self, other: "AFA") -> tuple[Symbol, ...] | None:
        ckpt = checkpoint_callable("afa.difference_witness")
        if _USE_COMPILED:
            mine_e, theirs_e = self._engine(), other._engine()
            dsearch, reps = mine_e.diff_searcher(theirs_e)
            start = (mine_e.to_mask(self.finals), theirs_e.to_mask(other.finals))
            parents, hit, popped = dsearch(
                start, mine_e.initial_fn, theirs_e.initial_fn, ckpt
            )
            STATS.vectors_explored += popped
            STATS.pre_steps += popped * 2 * len(reps)
            if hit is None:
                return None
            return _reconstruct(parents, hit, reps)
        mine, theirs = self.initial_condition.evaluate, other.initial_condition.evaluate
        start = (self.empty_word_vector(), other.empty_word_vector())

        def differs(pair: tuple[Vector, Vector]) -> bool:
            return mine(pair[0]) != theirs(pair[1])

        if differs(start):
            return ()
        # Stopping at the first disagreeing pair pushed finds the pair the
        # compiled search pops first: the queue is FIFO.
        order = self._symbol_order()
        rows = [
            (i, lambda pair, a=a, b=b: (a(pair[0]), b(pair[1])))
            for (i, a), (_, b) in zip(self._ast_rows(order), other._ast_rows(order))
        ]
        parents, hit, popped = generic_search(rows, start, True, differs, ckpt)
        STATS.vectors_explored += popped
        return None if hit is None else _reconstruct(parents, hit, order)

    @classmethod
    def from_nfa(cls, nfa: NFA) -> "AFA":
        """Encode an NFA as an AFA (disjunctive transition conditions).

        The NFA must be ε-free; eliminate ε-transitions by determinizing
        first if needed.
        """
        with span(
            "afa.from_nfa",
            nfa_states=len(nfa.states),
            alphabet=len(nfa.alphabet),
        ):
            return cls._from_nfa_impl(nfa)

    @classmethod
    def _from_nfa_impl(cls, nfa: NFA) -> "AFA":
        for (_state, symbol) in nfa.transitions:
            if symbol is None:
                raise ReproError("from_nfa requires an ε-free NFA")
        name = _canonical_state_name
        states = {name(s) for s in nfa.states}
        if len(states) != len(nfa.states):
            raise ReproError("NFA state names collide after str()")
        transitions: dict[tuple[State, Symbol], pl.Formula] = {}
        for (source, symbol), targets in nfa.transitions.items():
            transitions[(name(source), symbol)] = pl.disjoin(
                pl.Var(t) for t in sorted(name(t) for t in targets)
            )
        initial = pl.disjoin(pl.Var(s) for s in sorted(name(s) for s in nfa.initials))
        return cls(states, nfa.alphabet, transitions, initial, {name(s) for s in nfa.finals})

    def __repr__(self) -> str:
        return (
            f"AFA(states={len(self.states)}, alphabet={len(self.alphabet)}, "
            f"finals={len(self.finals)})"
        )


register_span(
    "afa.search_witness",
    "AFA accepting/rejecting-witness BFS over valuation vectors",
    "Theorem 4.1(3): SWS(PL, PL) non-emptiness/validation via AFA",
)
register_span(
    "afa.reachable_vectors",
    "AFA full vector-space sweep (to_dfa / reachable_vectors)",
    "Theorem 4.1(3): AFA reachability underlying the PL procedures",
)
register_span(
    "afa.difference_witness",
    "joint pair-BFS over two AFA vector spaces",
    "Theorem 4.1(3): PL equivalence via AFA difference",
)
