"""Store semantics: schema, pragmas, migrations, and multi-process safety."""

from __future__ import annotations

import base64
import json
import multiprocessing
import pickle
import sqlite3

import pytest

from repro.analysis.verdict import Answer
from repro.serve.store import STORE_SCHEMA_VERSION, Store, StoreError


def test_answer_roundtrip(tmp_path):
    store = Store(str(tmp_path / "s.sqlite3"))
    assert store.put_answer(
        "k", Answer.yes(witness=("a", "b"), detail="d"), procedure="p"
    )
    hit = store.get_answer("k")
    assert hit is not None and hit.is_yes and hit.witness == ("a", "b")
    assert store.has_answer("k") and not store.has_answer("absent")
    assert store.answer_count() == 1
    assert list(store.answer_keys()) == ["k"]
    assert store.get_answer("absent") is None
    store.close()


def test_reopen_sees_prior_writes(tmp_path):
    path = str(tmp_path / "s.sqlite3")
    with Store(path) as store:
        store.put_answer("k", Answer.no(detail="first"))
        store.put_answer("k", Answer.no(detail="second"))  # replace
    with Store(path) as store:
        assert store.answer_count() == 1
        assert store.get_answer("k").detail == "second"


def test_wal_mode_and_tuned_pragmas(tmp_path):
    with Store(str(tmp_path / "s.sqlite3")) as store:
        stats = store.stats()
    assert stats["schema_version"] == STORE_SCHEMA_VERSION
    assert stats["journal_mode"] == "wal"
    assert stats["page_size"] == 4096
    assert stats["busy_timeout_ms"] == 10_000
    assert stats["file_bytes"] > 0


def test_newer_schema_version_is_refused(tmp_path):
    path = str(tmp_path / "s.sqlite3")
    Store(path).close()
    with sqlite3.connect(path) as conn:
        conn.execute("UPDATE schema_version SET version = ?", (STORE_SCHEMA_VERSION + 1,))
    with pytest.raises(StoreError):
        Store(path)


def test_corrupt_payload_is_dropped_not_fatal(tmp_path):
    path = str(tmp_path / "s.sqlite3")
    store = Store(path)
    store.put_answer("good", Answer.yes())
    with sqlite3.connect(path) as conn:
        conn.execute(
            "UPDATE answers SET payload = ? WHERE fingerprint = 'good'",
            (b"not a pickle",),
        )
    assert store.get_answer("good") is None  # dropped, not raised
    assert not store.has_answer("good")  # the corrupt row was deleted
    store.close()


def test_meta_roundtrip_and_vacuum(tmp_path):
    store = Store(str(tmp_path / "s.sqlite3"))
    assert store.get_meta("marker") is None
    store.set_meta("marker", "v1")
    store.set_meta("marker", "v2")
    assert store.get_meta("marker") == "v2"
    store.vacuum()  # must not raise
    store.close()
    with pytest.raises(StoreError):
        store.put_answer("k", Answer.yes())


def test_import_jsonl_ignore_vs_replace(tmp_path):
    def record(key: str, detail: str) -> str:
        payload = base64.b64encode(pickle.dumps(Answer.yes(detail=detail)))
        return json.dumps(
            {"key": key, "verdict": "yes", "pickle": payload.decode("ascii")}
        )

    legacy = tmp_path / "answers.jsonl"
    legacy.write_text(
        "garbage line\n"
        + record("k1", "from-jsonl")
        + "\n"
        + json.dumps({"key": "no-pickle"})
        + "\n"
    )
    store = Store(str(tmp_path / "s.sqlite3"))
    store.put_answer("k1", Answer.yes(detail="from-store"))
    assert store.import_jsonl(str(legacy)) == 0  # store row wins by default
    assert store.get_answer("k1").detail == "from-store"
    assert store.import_jsonl(str(legacy), replace=True) == 1
    assert store.get_answer("k1").detail == "from-jsonl"
    assert store.import_jsonl(str(tmp_path / "missing.jsonl")) == 0
    store.close()


# -- multi-process safety ----------------------------------------------------------

_WRITES_PER_WORKER = 25


def _writer_process(path: str, worker_id: int) -> None:
    store = Store(path)
    for i in range(_WRITES_PER_WORKER):
        key = f"w{worker_id}-{i}"
        assert store.put_answer(
            key, Answer.yes(detail=key), procedure="concurrency-test"
        )
        # A per-key dead letter, written twice: the upsert contends on a
        # second table.
        store.put_dlq(_dlq_record(key, attempts=1))
        store.put_dlq(_dlq_record(key, attempts=2, label=f"w{worker_id}"))
        # Every worker also hammers one shared key — contention must
        # serialize, never corrupt.
        assert store.put_answer("shared", Answer.yes(detail=f"worker-{worker_id}"))
    store.close()


def test_concurrent_writer_processes_lose_nothing(tmp_path):
    """The acceptance criterion: >=4 writer processes, zero lost records."""
    workers = 5
    path = str(tmp_path / "shared.sqlite3")
    Store(path).close()  # schema exists before the stampede
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        ctx = multiprocessing.get_context()
    processes = [
        ctx.Process(target=_writer_process, args=(path, w)) for w in range(workers)
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=120)
    assert all(process.exitcode == 0 for process in processes)

    store = Store(path)
    assert store.answer_count() == workers * _WRITES_PER_WORKER + 1
    for w in range(workers):
        for i in range(_WRITES_PER_WORKER):
            key = f"w{w}-{i}"
            answer = store.get_answer(key)
            assert answer is not None and answer.detail == key
            record = store.get_dlq(key)
            assert record is not None
            assert (record.attempts, record.label) == (2, f"w{w}")
    assert store.dlq_count() == workers * _WRITES_PER_WORKER
    shared = store.get_answer("shared")
    assert shared is not None and shared.detail.startswith("worker-")
    store.close()


# -- dead-letter table -------------------------------------------------------------


def _dlq_record(fingerprint="fp-1", **overrides):
    from repro.serve import DLQRecord

    defaults = dict(
        fingerprint=fingerprint,
        procedure="nonempty_pl",
        label="job",
        reason="retries exhausted",
        attempts=3,
        trips=[{"limit": "steps", "site": "afa.search_witness"}],
        last_budget={"step_budget": 64},
        payload=DLQRecord.encode_job((1, "x"), {"k": 2}),
    )
    defaults.update(overrides)
    return DLQRecord(**defaults)


def test_dlq_roundtrip(tmp_path):
    with Store(str(tmp_path / "s.sqlite3")) as store:
        store.put_dlq(_dlq_record("fp-a"))
        store.put_dlq(_dlq_record("fp-b", payload=None, last_budget=None))
        assert store.dlq_count() == 2
        assert store.stats()["dlq"] == 2
        loaded = store.get_dlq("fp-a")
        assert loaded.procedure == "nonempty_pl"
        assert loaded.attempts == 3
        assert loaded.trips == [{"limit": "steps", "site": "afa.search_witness"}]
        assert loaded.last_budget == {"step_budget": 64}
        assert loaded.job() == ((1, "x"), {"k": 2})
        bare = store.get_dlq("fp-b")
        assert bare.payload is None and bare.last_budget is None
        assert store.get_dlq("absent") is None
        # Upsert: one record per fingerprint, updated in place.
        store.put_dlq(_dlq_record("fp-a", attempts=5))
        assert store.dlq_count() == 2
        assert store.get_dlq("fp-a").attempts == 5
        assert store.delete_dlq("fp-a") and not store.delete_dlq("fp-a")
        assert store.purge_dlq() == 1
        assert store.list_dlq() == []


def test_dlq_survives_reopen(tmp_path):
    path = str(tmp_path / "s.sqlite3")
    with Store(path) as store:
        store.put_dlq(_dlq_record("fp-a"))
    with Store(path) as store:
        assert [r.fingerprint for r in store.list_dlq()] == ["fp-a"]


def test_v1_store_upgrades_in_place(tmp_path):
    """A pre-dlq store opens cleanly: the table is added, version bumped."""
    path = str(tmp_path / "s.sqlite3")
    with Store(path) as store:
        store.put_answer("keep", Answer.yes(detail="survives the upgrade"))
    with sqlite3.connect(path) as conn:
        conn.execute("DROP TABLE dlq")
        conn.execute("UPDATE schema_version SET version = 1")
    with Store(path) as store:
        assert store.stats()["schema_version"] == STORE_SCHEMA_VERSION
        assert store.get_answer("keep").detail == "survives the upgrade"
        store.put_dlq(_dlq_record("fp-new"))
        assert store.dlq_count() == 1


# -- upgrades to schema v4 ---------------------------------------------------------

#: Tables older schemas kept that v4 drops, as those versions created
#: them: ``artifacts`` (v1-v3) and ``search_states`` (v3).
_RETIRED_DDL = {
    "artifacts": """
        CREATE TABLE artifacts (
            kind        TEXT NOT NULL,
            fingerprint TEXT NOT NULL,
            payload     BLOB NOT NULL,
            meta        TEXT,
            updated_s   REAL NOT NULL,
            PRIMARY KEY (kind, fingerprint)
        )
    """,
    "search_states": """
        CREATE TABLE search_states (
            procedure   TEXT NOT NULL,
            fingerprint TEXT NOT NULL,
            payload     BLOB NOT NULL,
            meta        TEXT,
            updated_s   REAL NOT NULL,
            PRIMARY KEY (procedure, fingerprint)
        )
    """,
}

_V4_TABLES = {"schema_version", "meta", "answers", "dlq"}


def _tables(path: str) -> set[str]:
    with sqlite3.connect(path) as conn:
        rows = conn.execute("SELECT name FROM sqlite_master WHERE type = 'table'")
        return {name for (name,) in rows}


def _downgrade(path: str, version: int, retired: tuple[str, ...]) -> None:
    """Stamp ``version`` and add the ``retired`` tables, one row each."""
    with sqlite3.connect(path) as conn:
        for table in retired:
            conn.execute(_RETIRED_DDL[table])
            conn.execute(
                f"INSERT INTO {table} VALUES ('kind', 'fp', ?, NULL, 0)",
                (pickle.dumps({"stale": table}),),
            )
        conn.execute("UPDATE schema_version SET version = ?", (version,))
    assert set(retired) <= _tables(path)


def test_v3_store_upgrades_to_v4_dropping_retired_tables(tmp_path):
    """A v3 store keeps its answers and dead letters; the ``artifacts``
    and ``search_states`` rows go with their tables."""
    path = str(tmp_path / "s.sqlite3")
    record = _dlq_record("fp-old")
    with Store(path) as store:
        store.put_answer("keep", Answer.yes(witness=("a",), detail="v3 answer"))
        store.put_dlq(record)
    _downgrade(path, 3, ("artifacts", "search_states"))
    with Store(path) as store:
        assert store.stats()["schema_version"] == STORE_SCHEMA_VERSION == 4
        kept = store.get_answer("keep")
        assert kept.detail == "v3 answer" and kept.witness == ("a",)
        assert store.get_dlq("fp-old") == record
    assert _tables(path) == _V4_TABLES


def test_v2_store_upgrades_to_v4_in_place(tmp_path):
    """A v2 store opens as v4: ``artifacts`` is dropped and the dlq
    table carries over untouched."""
    path = str(tmp_path / "s.sqlite3")
    with Store(path) as store:
        store.put_answer("keep", Answer.yes(detail="survives the upgrade"))
        store.put_dlq(_dlq_record("fp-old"))
    _downgrade(path, 2, ("artifacts",))
    with Store(path) as store:
        assert store.stats()["schema_version"] == STORE_SCHEMA_VERSION
        assert store.get_answer("keep").detail == "survives the upgrade"
        assert store.dlq_count() == 1
    assert _tables(path) == _V4_TABLES


def test_v1_store_upgrades_to_v4_chained(tmp_path):
    """A v1 store (artifacts, no dlq) chains straight to v4."""
    path = str(tmp_path / "s.sqlite3")
    with Store(path) as store:
        store.put_answer("keep", Answer.no(detail="v1 payload"))
    with sqlite3.connect(path) as conn:
        conn.execute("DROP TABLE dlq")
    _downgrade(path, 1, ("artifacts",))
    with Store(path) as store:
        assert store.stats()["schema_version"] == STORE_SCHEMA_VERSION
        assert store.get_answer("keep").detail == "v1 payload"
        store.put_dlq(_dlq_record("fp-new"))
        assert store.dlq_count() == 1
    assert _tables(path) == _V4_TABLES


# -- decorrelated retry backoff ----------------------------------------------------


def test_retry_backoff_bounds():
    import random

    from repro.serve.store import (
        _RETRY_BASE_SLEEP_S,
        _RETRY_CAP_SLEEP_S,
        retry_backoff_s,
    )

    rng = random.Random(42)
    previous = None
    for _ in range(200):
        wait = retry_backoff_s(previous, rng)
        assert _RETRY_BASE_SLEEP_S <= wait <= _RETRY_CAP_SLEEP_S
        window = max(_RETRY_BASE_SLEEP_S, 3.0 * (previous or _RETRY_BASE_SLEEP_S))
        assert wait <= window + 1e-9
        previous = wait


def test_retry_backoff_is_not_lockstep():
    """The old ``base * 2**attempt`` schedule retried every writer in
    phase; decorrelated jitter must give distinct schedules to writers
    with distinct rngs."""
    import random

    from repro.serve.store import retry_backoff_s

    def schedule(seed):
        rng, previous, waits = random.Random(seed), None, []
        for _ in range(5):
            previous = retry_backoff_s(previous, rng)
            waits.append(previous)
        return waits

    assert schedule(1) != schedule(2)
    assert len(set(schedule(3))) > 1  # and is not constant within a writer


def test_injected_store_fault_recovers_via_retry(tmp_path):
    """A chaos-injected first-attempt lock error never loses the write."""
    from repro import metrics
    from repro.guard import inject

    metrics.configure(enabled=True)
    with Store(str(tmp_path / "s.sqlite3")) as store:
        with inject.chaos(inject.ChaosSpec(store_error_rate=1.0)):
            assert store.put_answer("k", Answer.yes(detail="landed"))
            assert store.get_answer("k").detail == "landed"
    counters = metrics.snapshot()["counters"]
    assert metrics.counter_total(counters, "serve.store.retries") >= 2


def test_five_concurrent_writers_under_injected_faults(tmp_path):
    """Five writer threads on one store file, every first attempt failing
    with a transient lock error: all writes land, none raise (the S2
    backoff-regression scenario)."""
    import threading

    from repro.guard import inject

    path = str(tmp_path / "s.sqlite3")
    writers, writes_each = 5, 10
    errors: list[Exception] = []

    def writer(w: int) -> None:
        try:
            with Store(path) as store:
                for i in range(writes_each):
                    store.put_answer(f"w{w}-{i}", Answer.no(detail=f"w{w}-{i}"))
        except Exception as error:  # noqa: BLE001 - the assertion below reports it
            errors.append(error)

    with inject.chaos(inject.ChaosSpec(store_error_rate=0.5, seed=5)):
        threads = [
            threading.Thread(target=writer, args=(w,)) for w in range(writers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    assert not errors, f"writer raised: {errors[0]!r}"
    with Store(path) as store:
        assert store.answer_count() == writers * writes_each
        for w in range(writers):
            for i in range(writes_each):
                assert store.get_answer(f"w{w}-{i}").detail == f"w{w}-{i}"
