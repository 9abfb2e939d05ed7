"""SQLite-backed answer store for the serving layer.

The disk tier behind :class:`repro.serve.cache.AnswerCache` used to be
an append-only JSONL file.  That was fine for one process, but records
carrying base64 pickles routinely exceed the kernel's atomic-append
threshold, so several worker or batch processes appending at once could
interleave bytes mid-line and corrupt the file.  This module replaces it
with a single SQLite database that many reader/writer processes share
safely:

* **WAL journal mode** — readers never block the (single) writer and
  vice versa; commits are atomic whatever the record size.
* **Tuned pragmas** — 4 KiB pages, an 8 MiB page cache, ``NORMAL``
  synchronous (a WAL commit survives process crashes; the OS-crash
  window is acceptable for a cache), memory temp store.
* **Busy-timeout plus bounded retries** — concurrent writers queue on
  SQLite's own lock with :data:`BUSY_TIMEOUT_MS`, and the few
  operational errors that still surface (e.g. over NFS) are retried
  with backoff before giving up.
* **``schema_version`` table** — layout changes are detectable; opening
  a newer-versioned store raises instead of corrupting it.
* **Indexed fingerprint lookups** — answers and dead letters key on the
  structural job fingerprint (primary key = the index).

The store keeps decided answers and dead-letter records, nothing else.
A YES answer carries its witness, which is all :mod:`repro.delta` needs
to re-check an edited version in a new process.  The engine's
intermediates (compiled searchers, symbol quotients) live with their
automaton and are rebuilt, not loaded, by a new process.

Legacy ``answers.jsonl`` files migrate via :meth:`Store.import_jsonl`
(the cache calls it automatically on open; re-imports only when the
file changes, and existing store rows win over imported ones).
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import random
import sqlite3
import threading
import time
from typing import Any, Callable, Iterator

from repro import metrics
from repro.errors import ReproError
from repro.guard import inject as _inject
from repro.serve.resilience import DLQRecord

__all__ = [
    "Store",
    "StoreError",
    "STORE_SCHEMA_VERSION",
    "retry_backoff_s",
]

#: Version of the on-disk schema; bump on incompatible layout changes.
#: v2 added the ``dlq`` dead-letter table and v3 a ``search_states``
#: table of delta snapshots; v4 drops that table and ``artifacts``.
#: Older stores upgrade in place on open.
STORE_SCHEMA_VERSION = 4

#: Tables of earlier schema versions that v4 drops on upgrade.
_RETIRED_TABLES = ("artifacts", "search_states")

#: How long a writer waits on SQLite's lock before erroring (ms).
BUSY_TIMEOUT_MS = 10_000

_PAGE_SIZE = 4096
_CACHE_KIB = 8192  # 8 MiB page cache
_RETRIES = 5
_RETRY_BASE_SLEEP_S = 0.05
_RETRY_CAP_SLEEP_S = 1.0


def retry_backoff_s(
    previous_s: float | None, rng: random.Random | None = None
) -> float:
    """The next retry wait: decorrelated jitter, not lockstep doubling.

    The old schedule was ``base * 2**attempt`` — deterministic, so N
    worker processes that hit ``busy_timeout`` on the same contended
    write retried *in phase* and collided again on every attempt.
    Decorrelated jitter (``min(cap, uniform(base, 3 * previous))``)
    spreads the herd: each process draws its own wait from a widening
    window.  ``rng`` is injectable for deterministic tests.
    """
    draw = (rng or random).uniform
    span = max(_RETRY_BASE_SLEEP_S, 3.0 * (previous_s or _RETRY_BASE_SLEEP_S))
    return min(_RETRY_CAP_SLEEP_S, draw(_RETRY_BASE_SLEEP_S, span))

_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS schema_version (version INTEGER NOT NULL)",
    """
    CREATE TABLE IF NOT EXISTS meta (
        key   TEXT PRIMARY KEY,
        value TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS answers (
        fingerprint TEXT PRIMARY KEY,
        procedure   TEXT,
        verdict     TEXT,
        detail      TEXT,
        payload     BLOB NOT NULL,
        updated_s   REAL NOT NULL
    )
    """,
    "CREATE INDEX IF NOT EXISTS answers_by_procedure ON answers (procedure)",
    """
    CREATE TABLE IF NOT EXISTS dlq (
        fingerprint TEXT PRIMARY KEY,
        procedure   TEXT,
        label       TEXT,
        reason      TEXT,
        attempts    INTEGER NOT NULL,
        trips       TEXT,
        last_budget TEXT,
        payload     BLOB,
        updated_s   REAL NOT NULL
    )
    """,
)


class StoreError(ReproError):
    """Raised for unusable store files (bad schema version, closed store)."""


def _verdict_name(result: Any) -> str | None:
    verdict = getattr(result, "verdict", None)
    value = getattr(verdict, "value", None)
    return value if isinstance(value, str) else None


class Store:
    """One SQLite answer database, safe across processes.

    Thread-safe within a process (one connection per thread) and
    multi-process-safe across processes (WAL + busy timeout).  Forked
    children must not reuse the parent's connections; connections are
    therefore keyed by pid as well and silently reopened after a fork.
    """

    def __init__(self, path: str) -> None:
        self.path = os.path.abspath(path)
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._local = threading.local()
        self._closed = False
        self._lock = threading.Lock()
        with self._connection() as conn:
            self._init_schema(conn)

    # -- connections -------------------------------------------------------------

    def _connection(self) -> sqlite3.Connection:
        if self._closed:
            raise StoreError(f"store {self.path} is closed")
        conn = getattr(self._local, "conn", None)
        if conn is not None and self._local.pid == os.getpid():
            return conn
        conn = sqlite3.connect(
            self.path,
            timeout=BUSY_TIMEOUT_MS / 1000.0,
            isolation_level=None,  # autocommit; single statements are atomic
        )
        cursor = conn.cursor()
        # page_size only takes effect before the first table is created;
        # on an existing database it is a no-op, which is what we want.
        cursor.execute(f"PRAGMA page_size={_PAGE_SIZE}")
        cursor.execute("PRAGMA journal_mode=WAL")
        cursor.execute("PRAGMA synchronous=NORMAL")
        cursor.execute(f"PRAGMA cache_size={-_CACHE_KIB}")
        cursor.execute("PRAGMA temp_store=MEMORY")
        cursor.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
        cursor.close()
        self._local.conn = conn
        self._local.pid = os.getpid()
        return conn

    def _init_schema(self, conn: sqlite3.Connection) -> None:
        with self._lock:
            for statement in _SCHEMA:
                self._retry(lambda s=statement: conn.execute(s))
            row = conn.execute("SELECT version FROM schema_version").fetchone()
            if row is None:
                self._retry(
                    lambda: conn.execute(
                        "INSERT INTO schema_version (version) VALUES (?)",
                        (STORE_SCHEMA_VERSION,),
                    )
                )
            elif row[0] > STORE_SCHEMA_VERSION:
                raise StoreError(
                    f"store {self.path} has schema version {row[0]}, newer than "
                    f"this library's {STORE_SCHEMA_VERSION}; refusing to touch it"
                )
            elif row[0] < STORE_SCHEMA_VERSION:
                # Older store: the CREATE IF NOT EXISTS pass above already
                # added any new tables; drop the retired ones (a vacuum
                # then returns their pages) and stamp the new version.
                for table in _RETIRED_TABLES:
                    self._retry(
                        lambda t=table: conn.execute(f"DROP TABLE IF EXISTS {t}")
                    )
                self._retry(
                    lambda: conn.execute(
                        "UPDATE schema_version SET version = ?",
                        (STORE_SCHEMA_VERSION,),
                    )
                )

    @staticmethod
    def _retry(operation: Callable[[], Any]) -> Any:
        """Run ``operation``, retrying transient 'database is locked' errors.

        The busy timeout handles almost all contention; the retry loop
        backstops the cases SQLite still reports (lock escalation under
        WAL, some network filesystems) with decorrelated-jitter waits
        (:func:`retry_backoff_s`) so concurrent writers do not retry in
        phase.  The chaos harness (:mod:`repro.guard.inject`) may force
        a first attempt to fail with a transient error, exercising
        exactly this path.
        """
        backoff: float | None = None
        for attempt in range(_RETRIES):
            try:
                if _inject.store_fault_due(attempt):
                    raise sqlite3.OperationalError(
                        "database is locked [chaos injected]"
                    )
                return operation()
            except sqlite3.OperationalError as error:
                message = str(error).lower()
                transient = "locked" in message or "busy" in message
                if not transient or attempt == _RETRIES - 1:
                    raise
                metrics.counter("serve.store.retries").inc()
                backoff = retry_backoff_s(backoff)
                time.sleep(backoff)

    def close(self) -> None:
        """Close this thread's connection and refuse further use."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            try:
                conn.close()
            except sqlite3.Error:  # pragma: no cover - best-effort close
                pass
            self._local.conn = None
        self._closed = True

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- answers -----------------------------------------------------------------

    def put_answer(self, key: str, result: Any, procedure: str | None = None) -> bool:
        """Persist ``result`` under fingerprint ``key``.

        Returns False (storing nothing) when the result cannot be
        pickled.  A later put for the same key replaces the record.
        """
        try:
            payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:  # noqa: BLE001 - unpicklable results stay memory-only
            metrics.counter("serve.store.answer_skips").inc()
            return False
        detail = getattr(result, "detail", None)
        conn = self._connection()
        self._retry(
            lambda: conn.execute(
                "INSERT OR REPLACE INTO answers "
                "(fingerprint, procedure, verdict, detail, payload, updated_s) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                (
                    key,
                    procedure,
                    _verdict_name(result),
                    detail if isinstance(detail, str) else None,
                    payload,
                    time.time(),
                ),
            )
        )
        metrics.counter("serve.store.answer_stores").inc()
        return True

    def get_answer(self, key: str) -> Any | None:
        """The stored result for ``key``, or ``None`` (absent or corrupt)."""
        conn = self._connection()
        row = self._retry(
            lambda: conn.execute(
                "SELECT payload FROM answers WHERE fingerprint = ?", (key,)
            ).fetchone()
        )
        if row is None:
            metrics.counter("serve.store.answer_misses").inc()
            return None
        try:
            result = pickle.loads(row[0])
        except Exception:  # noqa: BLE001 - stale/corrupt record: drop it
            self._retry(
                lambda: conn.execute(
                    "DELETE FROM answers WHERE fingerprint = ?", (key,)
                )
            )
            metrics.counter("serve.store.answer_misses").inc()
            return None
        metrics.counter("serve.store.answer_hits").inc()
        return result

    def has_answer(self, key: str) -> bool:
        conn = self._connection()
        row = self._retry(
            lambda: conn.execute(
                "SELECT 1 FROM answers WHERE fingerprint = ?", (key,)
            ).fetchone()
        )
        return row is not None

    def answer_count(self) -> int:
        conn = self._connection()
        return self._retry(
            lambda: conn.execute("SELECT COUNT(*) FROM answers").fetchone()
        )[0]

    def answer_keys(self) -> Iterator[str]:
        conn = self._connection()
        for (key,) in self._retry(
            lambda: conn.execute("SELECT fingerprint FROM answers").fetchall()
        ):
            yield key

    # -- dead-letter queue -------------------------------------------------------

    def put_dlq(self, record: DLQRecord) -> None:
        """Upsert one dead-letter record (keyed by fingerprint)."""
        conn = self._connection()
        self._retry(
            lambda: conn.execute(
                "INSERT OR REPLACE INTO dlq "
                "(fingerprint, procedure, label, reason, attempts, trips, "
                "last_budget, payload, updated_s) VALUES (?,?,?,?,?,?,?,?,?)",
                (
                    record.fingerprint,
                    record.procedure,
                    record.label,
                    record.reason,
                    record.attempts,
                    json.dumps(record.trips, sort_keys=True),
                    json.dumps(record.last_budget, sort_keys=True)
                    if record.last_budget is not None
                    else None,
                    record.payload,
                    record.updated_s,
                ),
            )
        )

    @staticmethod
    def _dlq_record(row: tuple) -> DLQRecord:
        def loads(text, default):
            if text is None:
                return default
            try:
                return json.loads(text)
            except json.JSONDecodeError:
                return default

        return DLQRecord(
            fingerprint=row[0],
            procedure=row[1] or "",
            label=row[2] or "",
            reason=row[3] or "",
            attempts=row[4],
            trips=loads(row[5], []),
            last_budget=loads(row[6], None),
            payload=row[7],
            updated_s=row[8],
        )

    _DLQ_COLUMNS = (
        "fingerprint, procedure, label, reason, attempts, trips, "
        "last_budget, payload, updated_s"
    )

    def get_dlq(self, fingerprint: str) -> DLQRecord | None:
        conn = self._connection()
        row = self._retry(
            lambda: conn.execute(
                f"SELECT {self._DLQ_COLUMNS} FROM dlq WHERE fingerprint = ?",
                (fingerprint,),
            ).fetchone()
        )
        return self._dlq_record(row) if row else None

    def list_dlq(self) -> list[DLQRecord]:
        """Every dead-letter record, oldest first."""
        conn = self._connection()
        rows = self._retry(
            lambda: conn.execute(
                f"SELECT {self._DLQ_COLUMNS} FROM dlq "
                "ORDER BY updated_s, fingerprint"
            ).fetchall()
        )
        return [self._dlq_record(row) for row in rows]

    def delete_dlq(self, fingerprint: str) -> bool:
        conn = self._connection()
        cursor = self._retry(
            lambda: conn.execute(
                "DELETE FROM dlq WHERE fingerprint = ?", (fingerprint,)
            )
        )
        return cursor.rowcount > 0

    def purge_dlq(self) -> int:
        conn = self._connection()
        cursor = self._retry(lambda: conn.execute("DELETE FROM dlq"))
        return max(cursor.rowcount, 0)

    def dlq_count(self) -> int:
        conn = self._connection()
        return self._retry(
            lambda: conn.execute("SELECT COUNT(*) FROM dlq").fetchone()
        )[0]

    # -- meta / maintenance ------------------------------------------------------

    def get_meta(self, key: str) -> str | None:
        conn = self._connection()
        row = self._retry(
            lambda: conn.execute(
                "SELECT value FROM meta WHERE key = ?", (key,)
            ).fetchone()
        )
        return row[0] if row else None

    def set_meta(self, key: str, value: str) -> None:
        conn = self._connection()
        self._retry(
            lambda: conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                (key, value),
            )
        )

    def import_jsonl(self, path: str, *, replace: bool = False) -> int:
        """Import a legacy JSONL answer file; returns records imported.

        Unreadable lines and records without a pickle payload are
        skipped (the JSONL tier always tolerated garbage).  By default
        existing store rows win (``INSERT OR IGNORE``) — the store is
        the newer generation; ``replace=True`` inverts that for
        explicit CLI re-imports.
        """
        if not os.path.exists(path):
            return 0
        conn = self._connection()
        action = "REPLACE" if replace else "IGNORE"
        imported = 0
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                key = record.get("key")
                encoded = record.get("pickle")
                if not isinstance(key, str) or not isinstance(encoded, str):
                    continue
                try:
                    payload = base64.b64decode(encoded)
                    pickle.loads(payload)  # refuse records that cannot load
                except Exception:  # noqa: BLE001
                    continue
                cursor = self._retry(
                    lambda k=key, p=payload, r=record: conn.execute(
                        f"INSERT OR {action} INTO answers "
                        "(fingerprint, procedure, verdict, detail, payload, updated_s) "
                        "VALUES (?, ?, ?, ?, ?, ?)",
                        (
                            k,
                            r.get("procedure"),
                            r.get("verdict"),
                            r.get("detail"),
                            p,
                            time.time(),
                        ),
                    )
                )
                imported += cursor.rowcount if cursor.rowcount > 0 else 0
        return imported

    def stats(self) -> dict[str, Any]:
        """Counts, schema version, pragmas, and file size — JSON-friendly."""
        conn = self._connection()
        pragma = lambda name: conn.execute(f"PRAGMA {name}").fetchone()[0]  # noqa: E731
        try:
            size = os.path.getsize(self.path)
        except OSError:
            size = 0
        return {
            "path": self.path,
            "schema_version": conn.execute(
                "SELECT version FROM schema_version"
            ).fetchone()[0],
            "answers": self.answer_count(),
            "dlq": self.dlq_count(),
            "file_bytes": size,
            "journal_mode": pragma("journal_mode"),
            "page_size": pragma("page_size"),
            "cache_size": pragma("cache_size"),
            "busy_timeout_ms": pragma("busy_timeout"),
        }

    def vacuum(self) -> None:
        """Compact the database file (reclaims deleted-record space)."""
        conn = self._connection()
        self._retry(lambda: conn.execute("PRAGMA wal_checkpoint(TRUNCATE)"))
        self._retry(lambda: conn.execute("VACUUM"))

    def __repr__(self) -> str:
        return f"Store({self.path!r})"
