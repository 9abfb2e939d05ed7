"""The repro.artifacts hook: scoping, slot keys, provider fault isolation."""

from __future__ import annotations

from repro import artifacts


class RecordingProvider:
    def __init__(self) -> None:
        self.data: dict[tuple[str, object], object] = {}

    def load_artifact(self, kind, key):
        return self.data.get((kind, key))

    def store_artifact(self, kind, key, value, meta=None):
        self.data[(kind, key)] = value
        return True


class ExplodingProvider:
    def load_artifact(self, kind, key):
        raise RuntimeError("broken store")

    def store_artifact(self, kind, key, value, meta=None):
        raise RuntimeError("broken store")


def test_everything_is_noop_without_a_scope():
    assert not artifacts.enabled()
    assert artifacts.job_key() is None
    assert artifacts.slot("kind") is None
    assert artifacts.load("kind", "key") is None
    assert not artifacts.store("kind", "key", "value")


def test_none_provider_scope_is_noop():
    with artifacts.scope(None, "job"):
        assert not artifacts.enabled()
        assert artifacts.slot("kind") is None


def test_scope_roundtrip_and_restore():
    provider = RecordingProvider()
    with artifacts.scope(provider, "job-1"):
        assert artifacts.enabled()
        assert artifacts.job_key() == "job-1"
        assert artifacts.store("kind", "key", {"v": 1})
        assert artifacts.load("kind", "key") == {"v": 1}
        assert artifacts.load("kind", "absent") is None
    assert not artifacts.enabled()
    assert provider.data == {("kind", "key"): {"v": 1}}


def test_scopes_nest_inner_wins():
    outer, inner = RecordingProvider(), RecordingProvider()
    with artifacts.scope(outer, "outer"):
        with artifacts.scope(inner, "inner"):
            assert artifacts.job_key() == "inner"
            artifacts.store("kind", "key", "inner-value")
        assert artifacts.job_key() == "outer"
        assert artifacts.load("kind", "key") is None  # outer never saw it
    assert inner.data and not outer.data


def test_slot_ordinals_restart_per_scope_and_count_per_kind():
    provider = RecordingProvider()
    with artifacts.scope(provider, "job"):
        assert artifacts.slot("a") == "job/a/0"
        assert artifacts.slot("a") == "job/a/1"
        assert artifacts.slot("b") == "job/b/0"
    with artifacts.scope(provider, "job"):
        assert artifacts.slot("a") == "job/a/0"  # a fresh dispatch restarts
    with artifacts.scope(provider):  # no job key -> no slot identity
        assert artifacts.slot("a") is None


def test_provider_errors_never_propagate():
    with artifacts.scope(ExplodingProvider(), "job"):
        assert artifacts.load("kind", "key") is None
        assert not artifacts.store("kind", "key", "value")


# -- persisted AFA searchers ----------------------------------------------------------


def _searcher_payloads(provider):
    return {
        key: value for (kind, key), value in provider.data.items() if kind == "afa.searchers"
    }


def test_searcher_from_older_codegen_is_regenerated(monkeypatch):
    from repro._stats import STATS
    from repro.automata import afa as afa_mod
    from repro.core.pl_semantics import to_afa
    from repro.workloads.scaling import pl_counter_sws

    monkeypatch.setattr(afa_mod, "_SEARCHER_CACHE", {})
    provider = RecordingProvider()
    sws = pl_counter_sws(5)
    with artifacts.scope(provider, "job"):
        expected = to_afa(sws).accepting_witness()
    [(key, payload)] = _searcher_payloads(provider).items()
    assert payload["codegen"] == afa_mod._CODEGEN_VERSION
    assert key[0] == "_search"  # the sweep was never generated

    # Replace it by a payload in the previous codegen's layout, whose code
    # would fail loudly if it were ever run.
    poisoned = "def _search(start, accepting, initial, ckpt):\n    raise AssertionError\n"
    provider.data[("afa.searchers", key)] = {
        "magic": payload["magic"],
        "codegen": afa_mod._CODEGEN_VERSION - 1,
        "search_src": poisoned,
        "sweep_src": poisoned.replace("_search", "_sweep"),
    }
    monkeypatch.setattr(afa_mod, "_SEARCHER_CACHE", {})
    misses = STATS.compile_cache_misses
    with artifacts.scope(provider, "job"):
        assert to_afa(sws).accepting_witness() == expected
    assert STATS.compile_cache_misses == misses + 1
    assert _searcher_payloads(provider)[key]["codegen"] == afa_mod._CODEGEN_VERSION

    # The regenerated payload is current: a cold cache now rehydrates it.
    monkeypatch.setattr(afa_mod, "_SEARCHER_CACHE", {})
    misses = STATS.compile_cache_misses
    with artifacts.scope(provider, "job"):
        assert to_afa(sws).accepting_witness() == expected
    assert STATS.compile_cache_misses == misses
