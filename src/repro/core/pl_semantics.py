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
from typing import Iterable, Sequence

from repro.automata.afa import AFA
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
    """
    require_class(sws, SWSClass.PL_PL, "to_afa")
    symbols = alphabet_for(sws, variables)
    states = [
        _state_var(state, msg) for state in sws.states for msg in (True, False)
    ]
    transitions: dict[tuple[str, Assignment], pl.Formula] = {}
    finals: set[str] = set()
    truths = _Truths(symbols)
    for state in sws.states:
        state_finals, state_transitions = _pair_rows(sws, state, symbols, truths)
        finals |= state_finals
        transitions.update(state_transitions)
    return AFA(
        states,
        symbols,
        transitions,
        pl.Var(_state_var(sws.start, False)),
        finals,
    )


class _Truths:
    """Truth values of formulas on every symbol, each formula evaluated once.

    Guards and final syntheses recur across states (a menu's word chains
    share a handful of letter guards), and formulas are interned, so one
    table per construction serves every state that mentions a formula.
    """

    def __init__(self, symbols: Sequence[Assignment]) -> None:
        self._envs = {True: [a | {MSG} for a in symbols], False: symbols}
        self._memo: dict[tuple[pl.Formula, bool], tuple[bool, ...]] = {}

    def __call__(self, formula: pl.Formula, msg: bool) -> tuple[bool, ...]:
        """``formula`` on each symbol (plus ``MSG`` when ``msg``), in order."""
        values = self._memo.get((formula, msg))
        if values is None:
            values = tuple([formula.evaluate(env) for env in self._envs[msg]])
            self._memo[(formula, msg)] = values
        return values


def _pair_rows(
    sws: SWS, state: str, symbols: Sequence[Assignment], truths: _Truths
) -> tuple[set[str], dict[tuple[str, Assignment], pl.Formula]]:
    """The finals and transition entries contributed by one state's pairs.

    Both pairs of ``state`` depend only on ``state``'s own transition and
    synthesis rules (successor states appear as *names* in the produced
    formulas, not as rules), which is what makes the construction
    incremental: :func:`to_afa_incremental` re-runs this for edited
    states only.

    A transition formula depends on the symbol and register only through
    the truth values of the distinct guards ``φi``, so it is built once per
    distinct tuple of those values (a word-chain state has two) and shared
    by every symbol and both pairs producing that tuple.
    """
    rule = sws.transitions[state]
    sigma = sws.synthesis[state].query
    assert isinstance(sigma, pl.Formula)
    transitions: dict[tuple[str, Assignment], pl.Formula] = {}
    finals: set[str] = set()
    if not rule.is_final:
        aliases = sws.successor_register_aliases(state)
        # Guards are interned, so equal guards are one object.
        guards = list(dict.fromkeys(phi for _, phi in rule.targets))
        slot = {phi: j for j, phi in enumerate(guards)}
        children = [(target, slot[phi]) for target, phi in rule.targets]
        rows: dict[tuple[bool, ...], pl.Formula] = {}
    for msg in (True, False):
        pair = _state_var(state, msg)
        if rule.is_final:
            # V_ε entry: ψ on the empty assignment.
            env_eps = frozenset({MSG}) if msg else frozenset()
            if sigma.evaluate(env_eps):
                finals.add(pair)
            for a, value in zip(symbols, truths(sigma, msg)):
                transitions[(pair, a)] = pl.TRUE if value else pl.FALSE
            continue
        if not msg and state != sws.start:
            continue  # dead pair: all transitions false, not final
        columns = [truths(phi, msg) for phi in guards]
        for a, truth in zip(symbols, zip(*columns)):
            formula = rows.get(truth)
            if formula is None:
                child_pairs = [_state_var(target, truth[j]) for target, j in children]
                substitution = {
                    name: pl.Var(child_pairs[position])
                    for name, position in aliases.items()
                }
                formula = rows[truth] = sigma.substitute(substitution).simplify()
            transitions[(pair, a)] = formula
    return finals, transitions


def pair_states(state: str) -> tuple[str, str]:
    """The two AFA pair-state names of an SWS state (``msg`` true/false)."""
    return _state_var(state, True), _state_var(state, False)


def to_afa_incremental(
    sws: SWS,
    base: SWS,
    base_afa: AFA,
    changed_states: Iterable[str],
    variables: Iterable[str] | None = None,
) -> AFA | None:
    """Rebuild ``to_afa(sws)`` from ``base_afa`` re-deriving only edits.

    ``sws`` must differ from ``base`` (for which ``base_afa`` was built)
    only in the transition/synthesis rules of ``changed_states``: same
    state set, same start, same input variables.  Returns ``None`` when
    those layout preconditions fail — alphabet-growing or state-adding
    edits fall back to the full construction.  Per-state locality of
    :func:`_pair_rows` makes the result formula-identical to a scratch
    ``to_afa(sws)``; cost is proportional to the edited states.
    """
    require_class(sws, SWSClass.PL_PL, "to_afa_incremental")
    if frozenset(sws.states) != frozenset(base.states):
        return None
    if sws.start != base.start:
        return None
    symbols = alphabet_for(sws, variables)
    if frozenset(symbols) != base_afa.alphabet:
        return None
    changed = set(changed_states)
    dead_pairs = {
        pair for state in changed for pair in pair_states(state)
    }
    # Bulk-copy then evict the edited pairs' rows: the C-level dict copy
    # beats a filtering comprehension, and eviction is O(edit × symbols).
    transitions = dict(base_afa.transitions)
    for pair in dead_pairs:
        for a in symbols:
            transitions.pop((pair, a), None)
    finals = set(base_afa.finals) - dead_pairs
    truths = _Truths(symbols)
    for state in changed:
        state_finals, state_transitions = _pair_rows(sws, state, symbols, truths)
        finals |= state_finals
        transitions.update(state_transitions)
    # The spliced parts are the already-validated base plus rows from the
    # same `_pair_rows` a scratch `to_afa` would run, over an identical
    # state/alphabet layout — skip `AFA.__init__`'s full re-validation.
    return AFA._from_validated(
        base_afa.states,
        base_afa.alphabet,
        transitions,
        pl.Var(_state_var(sws.start, False)),
        frozenset(finals),
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
