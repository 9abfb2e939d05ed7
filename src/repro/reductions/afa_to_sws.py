"""AFA emptiness ≤p SWS(PL, PL) non-emptiness (PSPACE lower bound).

Theorem 4.1(3)'s lower bound rests on expressing alternating finite
automata in SWS(PL, PL) in polynomial time.  The construction here:

* each AFA symbol ``a`` becomes a propositional variable; the input
  encoding maps a word to one singleton assignment per symbol, terminated
  by a ``#`` delimiter (the same in-band session termination the Roman
  translation uses — an SWS cannot otherwise detect "end of word", since
  rule (1) silences starved internal states);
* each AFA state ``q`` becomes an SWS state whose children are *all* AFA
  states (kept unconditionally alive) plus one *indicator* child per
  symbol.  An indicator child is a final state whose transition formula
  tests "the current message is exactly ``a``" and whose synthesis returns
  its own register — so its gathered value says which symbol the parent
  just read;
* the parent's synthesis rule dispatches on the indicators:

      ψ_q  =  (ind_# ∧ [q ∈ F])  ∨  ⋁_a ( ind_a ∧ δ(q, a)[p ↦ A_p] )

  which reproduces the AFA's backward valuation exactly: on the delimiter
  the remaining-word value is the final-state indicator, and on a symbol
  the transition condition is evaluated on the children's values.

Then ``L(AFA) ∋ w  ⟺  τ accepts encode(w)``, and τ is non-empty iff the
AFA is non-empty (garbage assignments satisfy no indicator and yield
false).
"""

from __future__ import annotations

from typing import Sequence

from repro.automata.afa import AFA
from repro.core.sws import SWS, SWSKind, SynthesisRule, TransitionRule
from repro.errors import AnalysisError
from repro.logic import pl

#: Variable encoding the end-of-word delimiter.
DELIMITER_VARIABLE = "hash"


def symbol_variable(symbol: object) -> str:
    """The propositional variable encoding an AFA symbol."""
    return f"sym_{symbol}"


def _exactly(symbol: object | None, alphabet: Sequence[object]) -> pl.Formula:
    """The current message encodes exactly ``symbol`` (None = delimiter)."""
    parts: list[pl.Formula] = []
    for other in alphabet:
        variable = pl.Var(symbol_variable(other))
        parts.append(variable if other == symbol else pl.Not(variable))
    delimiter = pl.Var(DELIMITER_VARIABLE)
    parts.append(delimiter if symbol is None else pl.Not(delimiter))
    return pl.conjoin(parts)


def afa_to_sws(afa: AFA, name: str = "afa") -> SWS:
    """The polynomial translation AFA → SWS(PL, PL).

    Output-size note: |τ| = O(|Q|² + |Q|·|Σ| + Σ|δ|) — polynomial, as the
    lower-bound argument requires.
    """
    alphabet = sorted(afa.alphabet, key=repr)
    afa_states = sorted(afa.states)
    if any(s.startswith("ind_") or s in {"q_start"} for s in afa_states):
        raise AnalysisError("AFA state names clash with translation names")

    def state_name(afa_state: str) -> str:
        return f"s_{afa_state}"

    indicator_states = [f"ind_{i}" for i in range(len(alphabet))] + ["ind_end"]
    states = (
        ["q_start"]
        + [state_name(q) for q in afa_states]
        + indicator_states
    )
    transitions: dict[str, TransitionRule] = {}
    synthesis: dict[str, SynthesisRule] = {}

    # Indicator states: final; transition formula tested by the *parent*
    # fills their register, and their synthesis forwards it.
    for indicator in indicator_states:
        transitions[indicator] = TransitionRule()
        synthesis[indicator] = SynthesisRule(pl.Var("Msg"))

    def rule_pair(afa_state: str | None) -> tuple[TransitionRule, SynthesisRule]:
        """The shared child layout: all AFA states + one indicator each."""
        targets: list[tuple[str, pl.Formula]] = []
        substitution: dict[str, pl.Formula] = {}
        for position, child in enumerate(afa_states):
            targets.append((state_name(child), pl.TRUE))
            substitution[child] = pl.Var(f"A{position + 1}")
        offset = len(afa_states)
        indicator_register: dict[object, pl.Formula] = {}
        for i, symbol in enumerate(alphabet):
            targets.append((f"ind_{i}", _exactly(symbol, alphabet)))
            indicator_register[symbol] = pl.Var(f"A{offset + i + 1}")
        targets.append(("ind_end", _exactly(None, alphabet)))
        end_register = pl.Var(f"A{offset + len(alphabet) + 1}")
        branches: list[pl.Formula] = []
        if afa_state is None:
            # The start state evaluates the AFA's initial condition on the
            # vector of the *whole* word: reading symbol a, the condition's
            # state variables unfold one AFA step — V_{a·w}[q] = δ(q,a)(V_w)
            # — before the children's registers (which carry V_w) fill in.
            per_symbol_condition = {
                symbol: afa.initial_condition.substitute(
                    {
                        q: afa.transition(q, symbol)
                        for q in afa_states
                    }
                ).simplify()
                for symbol in alphabet
            }
            is_final = afa.initial_condition.substitute(
                {q: (pl.TRUE if q in afa.finals else pl.FALSE) for q in afa_states}
            ).simplify()
        else:
            per_symbol_condition = {
                symbol: afa.transition(afa_state, symbol)
                for symbol in alphabet
            }
            is_final = pl.TRUE if afa_state in afa.finals else pl.FALSE
        branches.append((end_register & is_final).simplify())
        for symbol in alphabet:
            condition = per_symbol_condition[symbol].substitute(substitution)
            branches.append(
                (indicator_register[symbol] & condition).simplify()
            )
        return TransitionRule(targets), SynthesisRule(pl.disjoin(branches))

    transitions["q_start"], synthesis["q_start"] = rule_pair(None)
    for afa_state in afa_states:
        transitions[state_name(afa_state)], synthesis[state_name(afa_state)] = (
            rule_pair(afa_state)
        )
    return SWS(states, "q_start", transitions, synthesis, kind=SWSKind.PL, name=name)


def encode_afa_word(word: Sequence[object]) -> list[frozenset[str]]:
    """Encode an AFA word as SWS input (delimiter appended)."""
    encoded = [frozenset({symbol_variable(symbol)}) for symbol in word]
    encoded.append(frozenset({DELIMITER_VARIABLE}))
    return encoded
