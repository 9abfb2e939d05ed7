"""Content-addressed answer cache for the serving layer.

Keys are job fingerprints (:mod:`repro.serve.fingerprint`); values are
the :class:`~repro.analysis.verdict.Answer` objects the registered
procedures return.

Semantics:

* **UNKNOWN is never cached.**  A guard-tripped (or budget-bounded)
  UNKNOWN says "ran out of resources", not "the answer is UNKNOWN";
  caching it would let one under-budgeted run poison every future,
  better-budgeted ask.  :meth:`AnswerCache.put` refuses such results and
  counts the refusal.
* The in-memory tier is a bounded LRU (gets refresh recency).
* The optional on-disk tier is a :class:`repro.serve.store.Store` — a
  WAL-mode SQLite database under a cache directory (``REPRO_CACHE_DIR``
  enables it for the default service).  Unlike the JSONL file it
  replaces, the store is safe for many concurrent reader/writer
  processes, so a cold process warm-starts from every answer an earlier
  run decided.
* Hit/miss/store counters feed both a local :class:`CacheStats` and the
  ``serve.cache.*`` counters of :mod:`repro.metrics`, which ``serve top``
  reads.
"""

from __future__ import annotations

import os
import sqlite3
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from repro import metrics
from repro.serve.store import Store, StoreError

#: Environment variable naming the on-disk cache directory.
CACHE_DIR_ENV_VAR = "REPRO_CACHE_DIR"

#: The store file of the disk tier, under its cache directory.
STORE_FILE = "answers.sqlite3"


def _verdict_name(result: Any) -> str | None:
    verdict = getattr(result, "verdict", None)
    value = getattr(verdict, "value", None)
    return value if isinstance(value, str) else None


def cacheable(result: Any) -> bool:
    """Whether ``result`` is a decided answer safe to memoize.

    Refuses UNKNOWN verdicts (budget artifacts, not facts about the
    instance) and anything carrying a guard :class:`~repro.guard.Trip`.
    Results without a ``verdict`` attribute are treated as decided —
    a procedure that returns a plain value decided it.
    """
    if _verdict_name(result) == "unknown":
        return False
    trip = getattr(result, "trip", None)
    if trip is not None and getattr(trip, "limit", None) is not None:
        return False
    return True


@dataclass
class CacheStats:
    """Counters for one :class:`AnswerCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    rejected_unknown: int = 0
    evictions: int = 0
    disk_loaded: int = 0
    disk_skipped: int = 0

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, int | float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "rejected_unknown": self.rejected_unknown,
            "evictions": self.evictions,
            "disk_loaded": self.disk_loaded,
            "disk_skipped": self.disk_skipped,
            "hit_rate": self.hit_rate(),
        }


class AnswerCache:
    """Two-tier (memory LRU + optional SQLite store) answer cache.

    Thread-safe: the scheduler consults it from the submitting thread
    while pool callbacks store results.  The disk tier is additionally
    safe across processes — any number of services may share one cache
    directory.
    """

    def __init__(self, capacity: int = 4096, directory: str | None = None) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._memory: OrderedDict[str, Any] = OrderedDict()
        self.store: Store | None = None
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            self.store = Store(os.path.join(directory, STORE_FILE))
            self.stats.disk_loaded = self.store.answer_count()

    # -- the two tiers -----------------------------------------------------------

    def get(self, key: str, procedure: str | None = None) -> Any | None:
        """The cached result for ``key``, or ``None`` on a miss.

        ``procedure`` only annotates disk records for humans; the key
        already encodes it.
        """
        del procedure
        with self._lock:
            if key in self._memory:
                self._memory.move_to_end(key)
                self.stats.hits += 1
                metrics.counter("serve.cache.hits", tier="memory").inc()
                return self._memory[key]
            if self.store is not None:
                result = self._store_io(lambda: self.store.get_answer(key))
                if result is not None:
                    self._remember(key, result)
                    self.stats.hits += 1
                    metrics.counter("serve.cache.hits", tier="disk").inc()
                    return result
            self.stats.misses += 1
            metrics.counter("serve.cache.misses").inc()
            return None

    def put(self, key: str, result: Any, procedure: str | None = None) -> bool:
        """Store a decided result; True iff every configured tier holds it.

        UNKNOWN/tripped results are stored nowhere and return False.  A
        result the disk tier cannot pickle is kept memory-only: the call
        returns False and counts a ``disk_skipped`` so callers relying
        on cross-process persistence can tell the difference.
        """
        if not cacheable(result):
            with self._lock:
                self.stats.rejected_unknown += 1
            metrics.counter("serve.cache.rejected_unknown").inc()
            return False
        with self._lock:
            self._remember(key, result)
            self.stats.stores += 1
            metrics.counter("serve.cache.stores").inc()
            if self.store is not None and not self._store_io(
                lambda: self.store.put_answer(key, result, procedure),
                default=False,
            ):
                self.stats.disk_skipped += 1
                metrics.counter("serve.cache.disk_skipped").inc()
                return False
            return True

    def _store_io(self, operation, default: Any = None) -> Any:
        """Run a disk-tier operation, degrading on I/O failure.

        The store already retries transient lock errors internally; an
        error that still escapes (exhausted retries, a disk yanked
        mid-run, chaos-injected faults) must cost this process the disk
        tier for one call, never the answer — the memory tier and the
        procedure itself still serve it.  Failures are counted on
        ``serve.store.io_errors`` so a soak run can prove the
        degradation happened without a single job being lost.
        """
        try:
            return operation()
        except (sqlite3.Error, StoreError, OSError):
            metrics.counter("serve.store.io_errors").inc()
            return default

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._memory:
                return True
            return self.store is not None and self.store.has_answer(key)

    def __len__(self) -> int:
        """Distinct keys answerable from *any* tier (memory or disk).

        Consistent with ``in``: every key visible to ``__contains__``
        is counted, whether or not it is currently memory-resident.
        """
        with self._lock:
            if self.store is None:
                return len(self._memory)
            keys = set(self._memory)
            keys.update(self.store.answer_keys())
            return len(keys)

    def clear_memory(self) -> None:
        """Drop the in-memory tier (disk records remain loadable)."""
        with self._lock:
            self._memory.clear()

    def close(self) -> None:
        """Close the disk tier (if any); the memory tier stays usable."""
        if self.store is not None:
            self.store.close()
            self.store = None

    def _remember(self, key: str, result: Any) -> None:
        self._memory[key] = result
        self._memory.move_to_end(key)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)
            self.stats.evictions += 1
            metrics.counter("serve.cache.evictions").inc()


def default_cache_directory() -> str | None:
    """The ``REPRO_CACHE_DIR`` path, or ``None`` when unset/empty."""
    path = os.environ.get(CACHE_DIR_ENV_VAR, "").strip()
    return path or None
