"""Answer cache semantics: LRU, the UNKNOWN taboo, and the disk tier."""

from __future__ import annotations

import sqlite3
import threading

from repro.analysis.verdict import Answer
from repro.guard import Trip
from repro.serve.cache import AnswerCache, cacheable


def test_basic_hit_miss():
    cache = AnswerCache(capacity=8)
    assert cache.get("k") is None
    assert cache.put("k", Answer.yes(detail="x"))
    hit = cache.get("k")
    assert hit is not None and hit.is_yes
    stats = cache.stats
    assert (stats.hits, stats.misses, stats.stores) == (1, 1, 1)


def test_lru_eviction_order():
    cache = AnswerCache(capacity=2)
    cache.put("a", Answer.yes())
    cache.put("b", Answer.no())
    assert cache.get("a") is not None  # refresh a; b is now LRU
    cache.put("c", Answer.yes())
    assert "b" not in cache
    assert cache.get("b") is None
    assert cache.get("a") is not None and cache.get("c") is not None
    assert cache.stats.evictions == 1


def test_unknown_never_cached():
    cache = AnswerCache()
    plain_unknown = Answer.unknown(detail="ran out")
    tripped = Answer.unknown(
        detail="deadline",
        trip=Trip(limit="deadline_s", site="afa.search", steps=10, elapsed_s=0.1),
    )
    assert not cacheable(plain_unknown)
    assert not cacheable(tripped)
    assert not cache.put("u1", plain_unknown)
    assert not cache.put("u2", tripped)
    assert cache.get("u1") is None and cache.get("u2") is None
    assert cache.stats.rejected_unknown == 2
    assert cache.stats.stores == 0


def test_decided_answers_are_cacheable():
    assert cacheable(Answer.yes())
    assert cacheable(Answer.no(witness="w"))
    assert cacheable({"verdict-free": True})  # plain values count as decided


def test_disk_tier_roundtrip(tmp_path):
    d = str(tmp_path / "cache")
    first = AnswerCache(directory=d)
    first.put("k1", Answer.yes(witness=("a", "b"), detail="afa"), procedure="nonempty_pl")
    first.put("k2", Answer.no(detail="empty"))
    first.close()

    second = AnswerCache(directory=d)  # fresh process, same directory
    assert second.stats.disk_loaded == 2
    hit = second.get("k1")
    assert hit is not None and hit.is_yes and hit.witness == ("a", "b")
    # Record metadata (verdict, procedure) is queryable without pickle.
    with sqlite3.connect(second.store.path) as conn:
        verdict, procedure = conn.execute(
            "SELECT verdict, procedure FROM answers WHERE fingerprint = 'k1'"
        ).fetchone()
    assert verdict == "yes"
    assert procedure == "nonempty_pl"
    second.close()


def test_last_record_wins_on_reload(tmp_path):
    d = str(tmp_path / "cache")
    cache = AnswerCache(directory=d)
    cache.put("k", Answer.yes(detail="first"))
    cache.put("k", Answer.yes(detail="second"))
    cache.close()
    reloaded = AnswerCache(directory=d)
    assert reloaded.get("k").detail == "second"
    reloaded.close()


def test_unpicklable_result_is_memory_only(tmp_path):
    cache = AnswerCache(directory=str(tmp_path / "cache"))
    unpicklable = {"verdict-free": True, "lock": threading.Lock()}
    # Contract: True iff *every* configured tier holds the result.
    assert not cache.put("k", unpicklable)
    assert cache.stats.disk_skipped == 1
    assert cache.get("k") is unpicklable  # memory tier still serves it
    assert not cache.store.has_answer("k")
    cache.close()
    # Without a disk tier there is nothing to skip: put is fully stored.
    memory_only = AnswerCache()
    assert memory_only.put("k", {"verdict-free": True, "lock": threading.Lock()})
    assert memory_only.stats.disk_skipped == 0


def test_len_counts_disk_resident_keys(tmp_path):
    d = str(tmp_path / "cache")
    seed = AnswerCache(directory=d)
    seed.put("k1", Answer.yes())
    seed.put("k2", Answer.no())
    seed.close()

    cache = AnswerCache(capacity=1, directory=d)
    cache.put("k3", Answer.yes())  # memory holds only k3 (capacity 1)
    # __len__ must agree with __contains__: all three keys are visible.
    assert "k1" in cache and "k2" in cache and "k3" in cache
    assert len(cache) == 3
    cache.clear_memory()
    assert len(cache) == 3  # k3 reached disk; nothing was lost
    cache.close()


def test_disk_tier_io_errors_degrade_to_misses(tmp_path):
    """A broken store behind the cache means misses, never crashes."""
    from repro import metrics

    metrics.configure(enabled=True)
    d = str(tmp_path / "cache")
    cache = AnswerCache(directory=d)
    assert cache.put("k", Answer.yes(detail="stored"))
    # Break the disk tier out from under the cache (not via cache.close,
    # which would detach it) and drop the memory tier.
    cache.store.close()
    cache._memory.clear()
    assert cache.get("k") is None  # disk read fails -> miss
    assert cache.put("k2", Answer.no()) is False  # disk write fails -> skipped
    counters = metrics.snapshot()["counters"]
    assert metrics.counter_total(counters, "serve.store.io_errors") >= 2
