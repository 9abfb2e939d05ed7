"""Tests for the SWS class lattice and classification."""

import pytest

from repro.analysis import nonempty_pl
from repro.core.classes import _ORDER, SWSClass, classify, is_in_class, require_class
from repro.core.sws import SWS
from repro.errors import AnalysisError
from repro.workloads.editing import menu_editing_trace
from repro.workloads.random_sws import random_cq_sws, random_pl_sws
from repro.workloads.scaling import cq_chain_sws, cq_diamond_sws, pl_counter_sws
from repro.workloads.travel import recursive_airfare_service, travel_service


class TestClassify:
    def test_pl_nonrecursive(self):
        assert classify(random_pl_sws(0, recursive=False)) is SWSClass.PL_PL_NR

    def test_pl_recursive(self):
        assert classify(pl_counter_sws(2)) is SWSClass.PL_PL

    def test_cq_nonrecursive(self):
        assert classify(cq_diamond_sws(2)) is SWSClass.CQ_UCQ_NR

    def test_cq_recursive(self):
        assert classify(cq_chain_sws(0)) is SWSClass.CQ_UCQ

    def test_fo_travel(self):
        # τ1 uses negation in ψ0, so it is FO (the paper says so too).
        assert classify(travel_service()) is SWSClass.FO_FO_NR
        assert classify(recursive_airfare_service()) is SWSClass.FO_FO


class TestLattice:
    def test_nonrecursive_variant(self):
        assert SWSClass.PL_PL.nonrecursive_variant is SWSClass.PL_PL_NR
        assert SWSClass.PL_PL_NR.nonrecursive_variant is SWSClass.PL_PL_NR

    def test_recursive_variant(self):
        assert SWSClass.CQ_UCQ_NR.recursive_variant is SWSClass.CQ_UCQ

    def test_recursive_allowed(self):
        assert SWSClass.FO_FO.recursive_allowed
        assert not SWSClass.FO_FO_NR.recursive_allowed

    def test_inclusions(self):
        diamond = cq_diamond_sws(1)
        assert is_in_class(diamond, SWSClass.CQ_UCQ_NR)
        assert is_in_class(diamond, SWSClass.CQ_UCQ)
        assert is_in_class(diamond, SWSClass.FO_FO_NR)
        assert is_in_class(diamond, SWSClass.FO_FO)
        assert not is_in_class(diamond, SWSClass.PL_PL)

    def test_recursive_not_in_nonrecursive(self):
        chain = cq_chain_sws(0)
        assert not is_in_class(chain, SWSClass.CQ_UCQ_NR)
        assert is_in_class(chain, SWSClass.FO_FO)

    def test_pl_incomparable_with_relational(self):
        counter = pl_counter_sws(2)
        assert not is_in_class(counter, SWSClass.CQ_UCQ)
        assert not is_in_class(counter, SWSClass.FO_FO)


class TestRequire:
    def test_require_passes(self):
        require_class(cq_diamond_sws(1), SWSClass.CQ_UCQ, "test")

    def test_require_raises(self):
        with pytest.raises(AnalysisError, match="requires"):
            require_class(travel_service(), SWSClass.CQ_UCQ, "test")

    def test_random_services_classified_consistently(self):
        for seed in range(10):
            sws = random_cq_sws(seed, recursive=True)
            expected = (
                SWSClass.CQ_UCQ if sws.is_recursive() else SWSClass.CQ_UCQ_NR
            )
            assert classify(sws) is expected


#: Services of these tests with their tightest classes.
SERVICES = {
    "pl_nr": (lambda: random_pl_sws(0, recursive=False), SWSClass.PL_PL_NR),
    "pl_counter": (lambda: pl_counter_sws(2), SWSClass.PL_PL),
    "menu": (lambda: menu_editing_trace(edits=0)[0], SWSClass.PL_PL_NR),
    "cq_diamond": (lambda: cq_diamond_sws(2), SWSClass.CQ_UCQ_NR),
    "cq_chain": (lambda: cq_chain_sws(0), SWSClass.CQ_UCQ),
    "random_cq": (lambda: random_cq_sws(3, recursive=True), SWSClass.CQ_UCQ),
    "random_cq_nr": (lambda: random_cq_sws(4, recursive=True), SWSClass.CQ_UCQ_NR),
    "travel": (travel_service, SWSClass.FO_FO_NR),
    "airfare": (recursive_airfare_service, SWSClass.FO_FO),
}


class TestMembershipWithoutRecursion:
    """A class admitting recursion contains its nonrecursive subclass, so
    only a nonrecursive class needs the dependency-graph cycle search."""

    @pytest.fixture
    def no_cycle_search(self, monkeypatch):
        def refuse(self):
            raise RuntimeError("dependency graph searched")

        monkeypatch.setattr(SWS, "is_recursive", refuse)

    def test_recursive_classes_skip_the_search(self, no_cycle_search):
        menu = menu_editing_trace(edits=0)[0]
        require_class(menu, SWSClass.PL_PL, "test")
        assert nonempty_pl(menu).is_yes
        require_class(cq_diamond_sws(1), SWSClass.CQ_UCQ, "test")
        assert is_in_class(travel_service(), SWSClass.FO_FO)
        assert not is_in_class(menu, SWSClass.CQ_UCQ_NR)

    def test_nonrecursive_classes_still_search(self, no_cycle_search):
        with pytest.raises(RuntimeError, match="searched"):
            is_in_class(random_pl_sws(0, recursive=False), SWSClass.PL_PL_NR)

    def test_recursive_service_is_not_nonrecursive(self):
        with pytest.raises(AnalysisError, match="requires"):
            require_class(pl_counter_sws(3), SWSClass.PL_PL_NR, "test")

    @pytest.mark.parametrize("name", sorted(SERVICES))
    def test_membership_follows_the_tightest_class(self, name):
        make, tightest = SERVICES[name]
        sws = make()
        assert classify(sws) is tightest
        for cls in SWSClass:
            assert is_in_class(sws, cls) is (cls in _ORDER[tightest]), cls
