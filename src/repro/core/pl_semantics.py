"""Language semantics of SWS(PL, PL) services.

A PL service τ defines a language over the alphabet of truth assignments:
``L(τ) = { I | τ(∅, I) = true }``.  Theorem 4.1(3) pins the decision
problems for this class at PSPACE (NP/coNP for the nonrecursive subclass),
"along the same lines as AFA".  This module makes the correspondence
executable:

*Backward valuation semantics.*  For a state ``q``, register value
``m ∈ {true, false}`` and input suffix ``w``, let ``value(q, m, w)`` be the
action value gathered at a node labeled ``q`` whose message register holds
``m`` when the remaining input is ``w``:

* ``k = 0``:   ``value = ψ_q(w1, m)`` — final synthesis reads the current
  message (``w1 = ∅`` when ``w`` is empty, rule (3));
* ``k > 0``, ``w = ε``:  ``value = false`` (input exhausted, rule (1));
* ``k > 0``, ``m = false`` at a non-start state:  ``value = false``
  (empty register, rule (1));
* otherwise:  ``value = ψ_q[Ai ↦ value(qi, φi(w1, m), w2..)]`` (rules
  (2)+(4)).

``L(τ)`` membership is ``value(q0, false, I)`` — the start state is exempt
from the empty-register cutoff (the paper's root special case).

The pair ``(q, m)`` space is finite, so τ is exactly an alternating finite
automaton over the pairs: :func:`to_afa` builds it, and every Table 1
decision procedure for the PL classes reduces to the AFA engine of
:mod:`repro.automata.afa`.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Sequence

from repro.automata.afa import AFA, _PatchedRows, symbol_sort_key
from repro.core.classes import SWSClass, require_class
from repro.core.sws import MSG, SWS, SWSKind
from repro.errors import AnalysisError
from repro.logic import pl

Assignment = frozenset[str]


def alphabet_for(
    sws: SWS, variables: Iterable[str] | None = None
) -> tuple[Assignment, ...]:
    """The effective input alphabet: all assignments over the input variables.

    Exponential in the number of input variables — the services the paper's
    PL analyses target carry few variables (FSA letters are encoded one
    variable per letter; Section 3).  ``variables`` overrides the inferred
    set, e.g. to analyze two services over their joint variables.
    """
    names = sorted(variables if variables is not None else sws.input_variables())
    return tuple(
        frozenset(combo)
        for r in range(len(names) + 1)
        for combo in itertools.combinations(names, r)
    )


def _state_var(state: str, msg: bool) -> str:
    return f"{state}|{'T' if msg else 'F'}"


def to_afa(sws: SWS, variables: Iterable[str] | None = None) -> AFA:
    """The AFA over (state, register) pairs with ``L(AFA) = L(τ)``.

    Symbols are truth assignments (frozensets of input variables).  The
    construction follows the backward semantics in the module docstring:

    * AFA states: pairs ``(q, m)`` named ``"q|T"`` / ``"q|F"``;
    * finals: pairs with ``k = 0`` and ``ψ_q(∅, m)`` true (the ``V_ε``
      vector);
    * transition of ``(q, m)`` on assignment ``a``: for ``k = 0`` the
      constant ``ψ_q(a, m)``; for ``k > 0`` the formula
      ``ψ_q[Ai ↦ (qi, φi(a, m))]`` — except the dead pairs (non-start,
      ``k > 0``, ``m = false``), whose transitions are ``false``;
    * initial condition: the variable ``(q0, false)`` — the start pair is
      exempt from the dead-pair rule because q0 never occurs on a rhs.

    Rows depend on the assignment only through the guards and final
    syntheses the live pairs read, so they are built per *letter class*
    of assignments agreeing on all of those (the minterm construction of
    symbolic automata).  Classes whose rows coincide are merged: the
    AFA's class map is the row-equality quotient, each class represented
    by its first assignment in :func:`repro.automata.afa.symbol_sort_key`
    order.
    """
    require_class(sws, SWSClass.PL_PL, "to_afa")
    symbols = sorted(alphabet_for(sws, variables), key=symbol_sort_key)
    classes = _letter_classes(sws, sws.states, _Truths(symbols))
    reps = list(dict.fromkeys(classes.values()))
    finals, columns = _pair_rows(sws, sws.states, reps)
    # Interned rows compare by identity; the start pair is always live.
    first: dict[tuple, Assignment] = {}
    merged = {
        rep: first.setdefault(tuple(map(id, row)), rep)
        for rep, row in zip(reps, zip(*columns.values()))
    }
    if len(first) < len(reps):
        classes = {symbol: merged[rep] for symbol, rep in classes.items()}
    transitions = {
        (pair, rep): formula
        for pair, column in columns.items()
        for rep, formula in zip(reps, column)
        if formula is not pl.FALSE and merged[rep] is rep
    }
    return AFA(
        [_state_var(state, msg) for state in sws.states for msg in (True, False)],
        symbols,
        transitions,
        pl.Var(_state_var(sws.start, False)),
        finals,
        classes,
    )


class _Truths:
    """Truth values of formulas on every symbol, each formula evaluated once.

    Guards and final syntheses recur across states (a menu's word chains
    share a handful of letter guards), and formulas are interned, so one
    table per construction serves every state that mentions a formula.
    """

    def __init__(self, symbols: Sequence[Assignment]) -> None:
        self.symbols = symbols
        self._envs = {True: [a | {MSG} for a in symbols], False: symbols}
        self._memo: dict[tuple[pl.Formula, bool], tuple[bool, ...]] = {}

    def __call__(self, formula: pl.Formula, msg: bool) -> tuple[bool, ...]:
        """``formula`` on each symbol (plus ``MSG`` when ``msg``), in order."""
        values = self._memo.get((formula, msg))
        if values is None:
            values = tuple([formula.evaluate(env) for env in self._envs[msg]])
            self._memo[(formula, msg)] = values
        return values


def _letter_classes(
    sws: SWS, states: Iterable[str], truths: _Truths
) -> dict[Assignment, Assignment]:
    """Each symbol of ``truths`` mapped to its letter class's representative.

    Two symbols share a class when every formula the live pairs of
    ``states`` read has one truth value on both; the representative is
    the first symbol of the class in ``truths``' order.
    """
    columns: dict[int, tuple[bool, ...]] = {}
    for state in states:
        rule = sws.transitions[state]
        if rule.is_final:
            sigma = sws.synthesis[state].query
            reads = [(sigma, True), (sigma, False)]
        else:  # a dead pair (non-start, register false) reads nothing
            msgs = (True, False) if state == sws.start else (True,)
            reads = [(phi, msg) for msg in msgs for _, phi in rule.targets]
        for formula, msg in reads:
            values = truths(formula, msg)
            columns[id(values)] = values
    first: dict[tuple[bool, ...], Assignment] = {}
    signatures = zip(*columns.values()) if columns else itertools.repeat(())
    return {
        symbol: first.setdefault(signature, symbol)
        for symbol, signature in zip(truths.symbols, signatures)
    }


def _pair_rows(
    sws: SWS, states: Iterable[str], reps: Sequence[Assignment]
) -> tuple[set[str], dict[str, tuple[pl.Formula, ...]]]:
    """The finals and the transition columns of the live pairs of ``states``.

    A column holds a pair's formula on each letter class, in the order of
    the representatives ``reps``; dead pairs get none.  The pairs of a
    state depend only on its own transition and synthesis rules
    (successor states appear as *names* in the produced formulas, not as
    rules), which is what makes the construction incremental:
    :func:`to_afa_incremental` re-runs this for edited states only.

    A transition formula depends on the class and register only through
    the truth values of the distinct guards ``φi``, so it is built once per
    distinct tuple of those values (a word-chain state has two) and shared
    by every class and both pairs producing that tuple.
    """
    truths = _Truths(reps)
    columns: dict[str, tuple[pl.Formula, ...]] = {}
    finals: set[str] = set()
    for state in states:
        rule = sws.transitions[state]
        sigma = sws.synthesis[state].query
        assert isinstance(sigma, pl.Formula)
        if rule.is_final:
            for msg in (True, False):
                pair = _state_var(state, msg)
                # V_ε entry: ψ on the empty assignment.
                if sigma.evaluate(frozenset({MSG}) if msg else frozenset()):
                    finals.add(pair)
                columns[pair] = tuple([pl.TRUE if v else pl.FALSE for v in truths(sigma, msg)])
            continue
        aliases = sws.successor_register_aliases(state)
        # Guards are interned, so equal guards are one object.
        guards = list(dict.fromkeys(phi for _, phi in rule.targets))
        slot = {phi: j for j, phi in enumerate(guards)}
        # Each register ψ reads: its name, its successor, its guard's slot.
        registers = []
        for name in sigma.variables():
            target, phi = rule.targets[aliases[name]]
            registers.append((name, target, slot[phi]))
        rows: dict[tuple[bool, ...], pl.Formula] = {}
        # The dead pair (non-start, register false) rejects everything.
        for msg in (True, False) if state == sws.start else (True,):
            column = []
            for truth in zip(*[truths(phi, msg) for phi in guards]):
                formula = rows.get(truth)
                if formula is None:
                    substitution = {
                        name: pl.Var(_state_var(target, truth[j]))
                        for name, target, j in registers
                    }
                    formula = rows[truth] = sigma.substitute(substitution).simplify()
                column.append(formula)
            columns[_state_var(state, msg)] = tuple(column)
    return finals, columns


def to_afa_incremental(
    sws: SWS,
    base: SWS,
    base_afa: AFA,
    changed_states: Iterable[str],
    variables: Iterable[str] | None = None,
) -> AFA | None:
    """Rebuild ``to_afa(sws)`` from ``base_afa`` re-deriving only edits.

    ``sws`` must differ from ``base`` (for which ``base_afa`` was built by
    :func:`to_afa` or by this function, over the same ``variables``) only
    in the transition/synthesis rules of ``changed_states``: same state
    set, same start, same input variables.  Returns ``None`` when those
    layout preconditions fail — alphabet-growing or state-adding edits
    fall back to the full construction.  Per-state locality of
    :func:`_pair_rows` makes the result equal to a scratch
    ``to_afa(sws)``, class map included; cost is proportional to the
    edited states.

    The result's transitions are patched against a *root*, the last
    automaton whose transitions are a plain dict (a scratch ``to_afa``):
    the rows of the states edited since the root are the patch's own, the
    others are read from the root automaton
    (:class:`repro.automata.afa._PatchedRows`), whose engine the result's
    engine patches.  Once the patches since the root have cost more than
    one copy of it, the result is copied into a plain dict, the next
    root, and its engine compiles from scratch.

    The base's class map carries over unless the edit splits a class (an
    edited formula separates two of its assignments) or merges two (their
    rows become equal); the result is then a scratch ``to_afa``.
    """
    require_class(sws, SWSClass.PL_PL, "to_afa_incremental")
    if sws.states is not base.states and frozenset(sws.states) != frozenset(base.states):
        return None
    if sws.start != base.start:
        return None
    # Same variables, same alphabet: compared without enumerating it.
    if variables is None and sws.input_variables() != base.input_variables():
        return None
    changed = set(changed_states)
    classes = base_afa.classes
    edited = _letter_classes(sws, changed, _Truths(list(classes)))
    seen: dict[Assignment, Assignment] = {}
    for symbol, rep in classes.items():
        if seen.setdefault(rep, edited[symbol]) is not edited[symbol]:
            return to_afa(sws, variables)
    reps = list(dict.fromkeys(classes.values()))
    edit_pairs = {_state_var(state, msg) for state in changed for msg in (True, False)}
    new_finals, columns = _pair_rows(sws, changed, reps)
    old = base_afa.transitions
    if isinstance(old, _PatchedRows):
        root, separators = old.root, old.separators
        dirty, work = old.dirty | edit_pairs, old.work
        rows = {key: formula for key, formula in old.rows.items() if key[0] not in edit_pairs}
    else:
        root, separators = base_afa, {}
        dirty, work, rows = frozenset(edit_pairs), 0, {}
    root_rows = root.transitions
    # Base classes have distinct rows, so two merge only if the edit makes
    # their rows agree on the edited pairs and they agree elsewhere: on the
    # other states patched since the root, and on the root's rows outside.
    false = pl.FALSE
    states = base_afa.states

    def separated(a: Assignment, b: Assignment) -> bool:
        key = (a, b)
        if key not in separators or separators[key] in dirty:
            separators[key] = next(
                (
                    p
                    for p in states
                    if p not in dirty
                    and root_rows.get((p, a), false) is not root_rows.get((p, b), false)
                ),
                None,
            )
        return separators[key] is not None or any(
            rows.get((p, a), false) is not rows.get((p, b), false) for p in dirty - edit_pairs
        )

    groups: dict[tuple, list[Assignment]] = {}
    for j, rep in enumerate(reps):
        key = tuple([id(column[j]) for column in columns.values()])
        groups.setdefault(key, []).append(rep)
    for group in groups.values():
        for a, b in itertools.combinations(group, 2):
            if not separated(a, b):
                return to_afa(sws, variables)
    for pair, column in columns.items():
        for rep, formula in zip(reps, column):
            if formula is not false:
                rows[(pair, rep)] = formula
    transitions: Mapping = _PatchedRows(root, dirty, rows, work + len(dirty), separators)
    if transitions.work > len(states):
        transitions = dict(transitions.items())
    # The rows are the already-validated root's plus rows from the same
    # `_pair_rows` a scratch `to_afa` would run, over an identical
    # state/alphabet/class layout — skip `AFA.__init__`'s full re-validation.
    return AFA._from_validated(
        states,
        base_afa.alphabet,
        transitions,
        pl.Var(_state_var(sws.start, False)),
        base_afa.finals.difference(edit_pairs) | new_finals,
        classes,
    )


def language_value(sws: SWS, word: Sequence[Assignment]) -> bool:
    """``value(q0, false, word)`` computed directly (no AFA construction).

    Cross-validates :func:`to_afa` and the execution-tree engine: all three
    agree on every word (tested property).
    """
    require_class(sws, SWSClass.PL_PL, "language_value")

    def value(state: str, msg: bool, position: int) -> bool:
        rule = sws.transitions[state]
        sigma = sws.synthesis[state].query
        assert isinstance(sigma, pl.Formula)
        current = word[position] if position < len(word) else frozenset()
        if rule.is_final:
            env = frozenset(current) | ({MSG} if msg else frozenset())
            return sigma.evaluate(env)
        if position >= len(word):
            return False
        if not msg and state != sws.start:
            return False
        env = frozenset(current) | ({MSG} if msg else frozenset())
        child_values: list[bool] = []
        for target, phi in rule.targets:
            assert isinstance(phi, pl.Formula)
            child_values.append(value(target, phi.evaluate(env), position + 1))
        aliases = sws.successor_register_aliases(state)
        register_env = frozenset(
            name for name, pos in aliases.items() if child_values[pos]
        )
        return sigma.evaluate(register_env)

    return value(sws.start, False, 0)


def sws_language_nfa_variables(
    sws: SWS, variables: Iterable[str] | None = None
):
    """The NFA of L(τ) over the alphabet of ``variables`` (default: own).

    Thin convenience over :func:`to_afa` used by analyses that live
    outside the mediator package (e.g. k-prefix recognizability).
    """
    return to_afa(sws, variables).to_nfa()


def joint_variables(*services: SWS) -> frozenset[str]:
    """The union of the input variables of several PL services.

    Comparative analyses (equivalence, composition) must run all services
    over the same alphabet.
    """
    out: frozenset[str] = frozenset()
    for sws in services:
        if sws.kind is not SWSKind.PL:
            raise AnalysisError("joint_variables expects PL services")
        out |= sws.input_variables()
    return out
