"""Structural deltas between two versions of an SWS instance.

The diff is layered on the serve-tier fingerprints: each version gets a
per-state Merkle tree (:func:`repro.serve.fingerprint.sub_fingerprints`)
whose leaves hash one state's transition + synthesis rules and whose
root is the service's job key.  A version made by
:meth:`repro.core.sws.SWS.replace` records its base and the states it
replaced, so :func:`derive_delta` derives its tree, input variables and
delta from the base's in time proportional to the edit.  Any other pair
of versions goes through :func:`compute_delta`, which visits every
state (unchanged rules are leaf-memo hits, not re-canonicalized).

The delta classifies an edit for :mod:`repro.delta.engine`:

* ``is_empty`` — semantically identical (rename-only edits land here:
  ``name`` is a label, not structure); nothing to invalidate.
* ``is_local`` — same state set, start, and input variables; only the
  rules of ``changed_states`` differ.  The AFA layout is stable, so the
  engine reuses the compiled rows of every other state.
* otherwise *global* — states were added/removed, the start moved, the
  input alphabet grew, or schema-level fields changed; the engine falls
  back to a full re-solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.sws import SWS, SWSKind
from repro.serve.fingerprint import SubFingerprints, sub_fingerprints

__all__ = ["InstanceDelta", "compute_delta", "derive_delta"]


@dataclass(frozen=True)
class InstanceDelta:
    """What changed between ``base`` and ``new``, at state granularity."""

    base_root: str
    new_root: str
    changed_states: frozenset[str] = field(default_factory=frozenset)
    added_states: frozenset[str] = field(default_factory=frozenset)
    removed_states: frozenset[str] = field(default_factory=frozenset)
    globals_changed: bool = False
    alphabet_changed: bool = False

    @property
    def is_empty(self) -> bool:
        """No semantic difference (identical or rename-only)."""
        return self.base_root == self.new_root

    @property
    def is_local(self) -> bool:
        """Only existing states' rules changed; the AFA layout is stable."""
        return (
            not self.is_empty
            and not self.globals_changed
            and not self.alphabet_changed
            and not self.added_states
            and not self.removed_states
        )

    def as_dict(self) -> dict:
        return {
            "base_root": self.base_root,
            "new_root": self.new_root,
            "empty": self.is_empty,
            "local": self.is_local,
            "changed_states": sorted(self.changed_states),
            "added_states": sorted(self.added_states),
            "removed_states": sorted(self.removed_states),
            "globals_changed": self.globals_changed,
            "alphabet_changed": self.alphabet_changed,
        }


def compute_delta(
    base: SWS,
    new: SWS,
    base_tree: SubFingerprints | None = None,
    new_tree: SubFingerprints | None = None,
) -> InstanceDelta:
    """The :class:`InstanceDelta` from ``base`` to ``new``.

    Pass precomputed trees when available (a :class:`repro.delta.session.Session`
    keeps the current version's tree) to skip rehashing that side.
    """
    if base_tree is None:
        base_tree = sub_fingerprints(base)
    if new_tree is None:
        new_tree = sub_fingerprints(new)
    base_states = set(base_tree.states)
    new_states = set(new_tree.states)
    changed = {
        state
        for state in base_states & new_states
        if base_tree.states[state] != new_tree.states[state]
    }
    if base.kind is SWSKind.PL and new.kind is SWSKind.PL:
        alphabet_changed = base.input_variables() != new.input_variables()
    else:
        alphabet_changed = base.kind is not new.kind
    return InstanceDelta(
        base_root=base_tree.root,
        new_root=new_tree.root,
        changed_states=frozenset(changed),
        added_states=frozenset(new_states - base_states),
        removed_states=frozenset(base_states - new_states),
        globals_changed=base_tree.globals_digest != new_tree.globals_digest,
        alphabet_changed=alphabet_changed,
    )


def derive_delta(
    base: SWS, base_tree: SubFingerprints, new: SWS
) -> tuple[SubFingerprints, InstanceDelta] | None:
    """``new``'s tree and its delta from ``base``, without a pass over either.

    Applies when ``new`` is :meth:`~repro.core.sws.SWS.replace`'s copy of
    ``base`` (whose tree is ``base_tree``); returns ``None`` for any other
    version.  The tree and the delta equal ``sub_fingerprints(new)`` and
    ``compute_delta(base, new)``: only the replaced states' leaves are
    hashed, and ``new``'s input variables are derived from ``base``'s.
    """
    replaced = new.replaced_states(base)
    if replaced is None:
        return None
    tree = base_tree.replaced(new, replaced)
    alphabet_changed = False
    if new.kind is SWSKind.PL:
        new._inherit_input_variables(base, replaced)
        alphabet_changed = base.input_variables() != new.input_variables()
    delta = InstanceDelta(
        base_root=base_tree.root,
        new_root=tree.root,
        changed_states=frozenset(
            state for state in replaced if tree.states[state] != base_tree.states[state]
        ),
        alphabet_changed=alphabet_changed,
    )
    return tree, delta
