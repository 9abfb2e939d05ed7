"""The SWS class lattice: SWS(LMsg, LAct) and nonrecursive subclasses.

Section 2 classifies SWS's by (a) the language of transition queries, (b)
the language of synthesis queries, and (c) whether the dependency graph is
cyclic.  The paper studies SWS(PL, PL), SWS(CQ, UCQ) and SWS(FO, FO) plus
their nonrecursive subclasses; :func:`classify` computes the tightest class
of a concrete SWS, and :func:`is_in_class` checks membership (classes are
ordered: PL services are not comparable to relational ones, and
CQ/UCQ ⊆ FO/FO).
"""

from __future__ import annotations

from enum import Enum

from repro.core.sws import SWS, SWSKind
from repro.errors import AnalysisError
from repro.logic import pl
from repro.logic.cq import ConjunctiveQuery
from repro.logic.fo import FOQuery
from repro.logic.ucq import UnionQuery


class SWSClass(Enum):
    """The SWS classes of Section 2 (Table 1 rows)."""

    PL_PL = "SWS(PL, PL)"
    PL_PL_NR = "SWSnr(PL, PL)"
    CQ_UCQ = "SWS(CQ, UCQ)"
    CQ_UCQ_NR = "SWSnr(CQ, UCQ)"
    FO_FO = "SWS(FO, FO)"
    FO_FO_NR = "SWSnr(FO, FO)"

    @property
    def recursive_allowed(self) -> bool:
        """Whether the class admits cyclic dependency graphs."""
        return self in {SWSClass.PL_PL, SWSClass.CQ_UCQ, SWSClass.FO_FO}

    @property
    def nonrecursive_variant(self) -> "SWSClass":
        """The SWSnr(·,·) subclass of this class."""
        return {
            SWSClass.PL_PL: SWSClass.PL_PL_NR,
            SWSClass.CQ_UCQ: SWSClass.CQ_UCQ_NR,
            SWSClass.FO_FO: SWSClass.FO_FO_NR,
        }.get(self, self)

    @property
    def recursive_variant(self) -> "SWSClass":
        """The unrestricted superclass of this class."""
        return {
            SWSClass.PL_PL_NR: SWSClass.PL_PL,
            SWSClass.CQ_UCQ_NR: SWSClass.CQ_UCQ,
            SWSClass.FO_FO_NR: SWSClass.FO_FO,
        }.get(self, self)


def _query_level(query) -> str:
    """'pl', 'cq', 'ucq' or 'fo' for a rule query."""
    if isinstance(query, pl.Formula):
        return "pl"
    if isinstance(query, ConjunctiveQuery):
        return "cq"
    if isinstance(query, UnionQuery):
        return "ucq"
    if isinstance(query, FOQuery):
        return "fo"
    raise AnalysisError(f"unknown query type {type(query).__name__}")


def _recursive_class(sws: SWS) -> SWSClass:
    """The tightest class admitting recursion that contains ``sws``."""
    if sws.kind is SWSKind.PL:
        return SWSClass.PL_PL
    levels_t = {
        _query_level(query)
        for rule in sws.transitions.values()
        for _target, query in rule.targets
    }
    levels_s = {_query_level(rule.query) for rule in sws.synthesis.values()}
    if levels_t <= {"cq"} and levels_s <= {"cq", "ucq"}:
        return SWSClass.CQ_UCQ
    return SWSClass.FO_FO


def classify(sws: SWS) -> SWSClass:
    """The tightest class of Section 2 containing ``sws``.

    A relational SWS is in SWS(CQ, UCQ) when every transition query is a CQ
    and every synthesis query is a CQ or UCQ; otherwise it is in
    SWS(FO, FO).  The nonrecursive variant is reported when the dependency
    graph is acyclic.
    """
    base = _recursive_class(sws)
    if sws.is_recursive():
        return base
    return base.nonrecursive_variant


_ORDER = {
    SWSClass.PL_PL_NR: (SWSClass.PL_PL_NR, SWSClass.PL_PL),
    SWSClass.PL_PL: (SWSClass.PL_PL,),
    SWSClass.CQ_UCQ_NR: (
        SWSClass.CQ_UCQ_NR,
        SWSClass.CQ_UCQ,
        SWSClass.FO_FO_NR,
        SWSClass.FO_FO,
    ),
    SWSClass.CQ_UCQ: (SWSClass.CQ_UCQ, SWSClass.FO_FO),
    SWSClass.FO_FO_NR: (SWSClass.FO_FO_NR, SWSClass.FO_FO),
    SWSClass.FO_FO: (SWSClass.FO_FO,),
}


def is_in_class(sws: SWS, cls: SWSClass) -> bool:
    """Whether ``sws`` belongs to ``cls`` (respecting class inclusions).

    A class admitting recursion contains its nonrecursive subclass, so the
    dependency graph is searched for a cycle only when ``cls`` is a
    nonrecursive class.
    """
    base = _recursive_class(sws)
    if cls.recursive_allowed:
        return cls in _ORDER[base]
    return cls in _ORDER[base.nonrecursive_variant] and not sws.is_recursive()


def require_class(sws: SWS, cls: SWSClass, procedure: str) -> None:
    """Raise :class:`AnalysisError` unless ``sws`` is in ``cls``."""
    if not is_in_class(sws, cls):
        raise AnalysisError(
            f"{procedure} requires an SWS in {cls.value}; "
            f"{sws.name!r} is in {classify(sws).value}"
        )
