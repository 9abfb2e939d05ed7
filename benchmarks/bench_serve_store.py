"""Experiment SRV.2 — the SQLite answer store across processes.

Two claims the store makes beyond the in-memory cache:

* **Cold-process warm start.**  A fresh interpreter pointed at a
  populated cache directory reuses the answers prior runs decided.
  Measured with real subprocesses — two of them, each running the same
  non-emptiness batch over the succinct-counter family:

  - ``from_scratch`` — empty cache directory, everything derived;
  - ``warm_start`` — same directory, but the most expensive job's
    *answer* is deleted first, so the run reuses the remaining answers
    and re-executes that one job.

* **Concurrent writers.**  N writer processes hammer one store; the
  bench records wall-clock and throughput per N and verifies that not
  a single record was lost or corrupted.

``main()`` records both sections into ``BENCH_serve_store.json`` via
``merge_section``.  The child modes (``_solve``, ``_write``) are this
same file re-invoked with a mode argument, so numbers come from genuine
cold interpreters, not a forked warm one.
"""

from __future__ import annotations

import json
import os
import shutil
import sqlite3
import subprocess
import sys
import tempfile
import time

from _bench_io import merge_section

BENCH_SERVE_STORE = "BENCH_serve_store.json"

_REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
_SRC = os.path.join(_REPO_ROOT, "src")

#: The solve batch: counter bits, ascending cost; the last is the one
#: whose answer the warm-start scenario deletes and re-derives.
BITS = (13, 14, 15)

WRITER_COUNTS = (1, 2, 4, 8)
RECORDS_PER_WRITER = 100


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run_child(mode: str, *args: object) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), mode, *map(str, args)],
        capture_output=True,
        text=True,
        env=_child_env(),
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- child modes (run in fresh interpreters) ----------------------------------


def _child_solve(cache_dir: str) -> None:
    from repro.serve import JobSpec, SolverService
    from repro.workloads.scaling import pl_counter_sws

    specs = [JobSpec("nonempty_pl", (pl_counter_sws(n),)) for n in BITS]
    t0 = time.perf_counter()
    with SolverService(cache_dir=cache_dir) as service:
        results = service.run_batch(specs)
        elapsed = time.perf_counter() - t0
        assert all(answer.is_yes for answer in results)
        out = {
            "elapsed_s": round(elapsed, 6),
            "answer_hits": service.cache.stats.hits,
            "jobs_executed": service.jobs_executed,
        }
    print(json.dumps(out))


def _child_write(path: str, worker_id: str, count: str) -> None:
    from repro.analysis.verdict import Answer
    from repro.serve.store import Store

    t0 = time.perf_counter()
    with Store(path) as store:
        for i in range(int(count)):
            key = f"bench-w{worker_id}-{i}"
            assert store.put_answer(key, Answer.yes(detail=key), procedure="bench")
    print(json.dumps({"elapsed_s": round(time.perf_counter() - t0, 6)}))


# -- sections -----------------------------------------------------------------


def bench_warm_start(workdir: str) -> dict:
    cache_dir = os.path.join(workdir, "cache")
    from_scratch = _run_child("_solve", cache_dir)
    store_path = os.path.join(cache_dir, "answers.sqlite3")

    # Warm start: answers reused for all but the most expensive job.
    with sqlite3.connect(store_path) as conn:
        cursor = conn.execute(
            "DELETE FROM answers WHERE fingerprint = "
            "(SELECT fingerprint FROM answers ORDER BY LENGTH(payload) DESC LIMIT 1)"
        )
        assert cursor.rowcount == 1
    warm = _run_child("_solve", cache_dir)

    assert warm["answer_hits"] == len(BITS) - 1
    assert warm["jobs_executed"] == 1
    speedup = from_scratch["elapsed_s"] / warm["elapsed_s"]
    assert speedup > 1.0, (
        f"warm start ({warm['elapsed_s']}s) not faster than from scratch "
        f"({from_scratch['elapsed_s']}s)"
    )
    return {
        "bits": list(BITS),
        "from_scratch": from_scratch,
        "warm_start": warm,
        "warm_speedup_vs_scratch": round(speedup, 2),
        "notes": (
            "each row is one fresh python process; warm_start deletes the "
            "largest answer so the run reuses the other answers and "
            "re-executes one job"
        ),
    }


def bench_concurrent_writers(workdir: str) -> dict:
    sys.path.insert(0, _SRC)
    from repro.serve.store import Store

    rows = []
    for n in WRITER_COUNTS:
        path = os.path.join(workdir, f"writers-{n}.sqlite3")
        Store(path).close()  # schema exists before the stampede
        t0 = time.perf_counter()
        children = [
            subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "_write", path, str(w), str(RECORDS_PER_WRITER)],
                env=_child_env(),
                stdout=subprocess.DEVNULL,
            )
            for w in range(n)
        ]
        for child in children:
            assert child.wait(timeout=300) == 0
        elapsed = time.perf_counter() - t0

        with Store(path) as store:
            count = store.answer_count()
            assert count == n * RECORDS_PER_WRITER, (
                f"{n} writers: {count} records, expected {n * RECORDS_PER_WRITER}"
            )
            for w in range(n):  # spot-check every writer's records load
                answer = store.get_answer(f"bench-w{w}-0")
                assert answer is not None and answer.is_yes
        rows.append(
            {
                "writers": n,
                "records": n * RECORDS_PER_WRITER,
                "elapsed_s": round(elapsed, 6),
                "records_per_s": round(n * RECORDS_PER_WRITER / elapsed, 1),
                "lost_records": 0,
            }
        )
    return {
        "records_per_writer": RECORDS_PER_WRITER,
        "rows": rows,
        "notes": (
            "N subprocess writers against one WAL-mode store; elapsed includes "
            "interpreter startup; lost_records asserts count and loadability"
        ),
    }


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="bench-serve-store-")
    try:
        warm = bench_warm_start(workdir)
        writers = bench_concurrent_writers(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    merge_section(
        BENCH_SERVE_STORE,
        "warm_start",
        warm,
        regenerate="python benchmarks/bench_serve_store.py",
    )
    merge_section(
        BENCH_SERVE_STORE,
        "concurrent_writers",
        writers,
        regenerate="python benchmarks/bench_serve_store.py",
    )
    print(
        f"from scratch {warm['from_scratch']['elapsed_s']:.3f}s | "
        f"warm start {warm['warm_start']['elapsed_s']:.3f}s "
        f"({warm['warm_speedup_vs_scratch']:.1f}x)"
    )
    for row in writers["rows"]:
        print(
            f"{row['writers']} writers: {row['records']} records in "
            f"{row['elapsed_s']:.3f}s ({row['records_per_s']:.0f} rec/s)"
        )


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "_solve":
        sys.path.insert(0, _SRC)
        _child_solve(sys.argv[2])
    elif len(sys.argv) > 1 and sys.argv[1] == "_write":
        sys.path.insert(0, _SRC)
        _child_write(*sys.argv[2:5])
    else:
        main()
