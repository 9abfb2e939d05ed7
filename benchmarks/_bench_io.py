"""Shared timing/emission helpers for the BENCH_*.json exports.

The pytest-benchmark runs measure scaling shape interactively; the
``main()`` entry points in ``bench_table1_pl_recursive.py`` and
``bench_table1_pl_nr.py`` use these helpers to record *before/after*
numbers for the compiled PL/AFA engine into a single
``BENCH_table1_pl.json`` at the repository root, and to drop a
``repro.obs`` JSONL trace artifact next to it (one per emitter; inspect
with ``python -m repro.obs explain <artifact>``).
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable

#: Version of the BENCH_*.json layout written by :func:`merge_section`.
BENCH_SCHEMA_VERSION = 2

_REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))

BENCH_TABLE1_PL = os.path.join(_REPO_ROOT, "BENCH_table1_pl.json")


def trace_artifact_path(emitter_file: str) -> str:
    """The trace artifact path for a bench emitter, next to the JSON.

    ``bench_table1_pl_recursive.py`` → ``BENCH_table1_pl_recursive.trace.jsonl``
    at the repository root, so each emitter owns (and truncates) exactly
    one artifact regardless of run order.
    """
    stem = os.path.splitext(os.path.basename(emitter_file))[0]
    stem = stem.removeprefix("bench_")
    return os.path.join(_REPO_ROOT, f"BENCH_{stem}.trace.jsonl")


def timed(func: Callable[[], Any], repeats: int = 3) -> tuple[float, Any]:
    """Best-of-``repeats`` wall-clock for ``func``; returns (seconds, result)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _metrics_context() -> dict | None:
    """The active :mod:`repro.metrics` snapshot context, if enabled.

    ``REPRO_METRICS=... python benchmarks/bench_*.py`` stamps the run's
    cache hit rate and per-histogram count/p99 into the emitted
    ``_meta`` block, tying the committed numbers to the serving-layer
    conditions they were measured under.  Disabled (the default) stamps
    nothing, so plain regeneration runs leave the files byte-stable.
    """
    try:
        from repro import metrics
    except ImportError:  # pragma: no cover - src/ not on the path
        return None
    return metrics.bench_context()


def merge_section(
    path: str, section: str, payload: dict, regenerate: str | None = None
) -> dict:
    """Write ``payload`` under ``section`` in the JSON file at ``path``.

    Other sections are preserved, so several bench emitters can each
    write their own section independently and in either order.  The
    ``_meta`` block is derived from the arguments — the file name from
    ``path``, the per-section regeneration command from ``regenerate`` —
    rather than hardcoded, and carries a ``schema_version`` so readers
    can detect layout changes.  Section-specific context (what "before"
    and "after" mean, notes) belongs in the section payload itself.
    """
    data: dict = {}
    if os.path.exists(path):
        with open(path) as handle:
            data = json.load(handle)
    data[section] = payload
    meta = data.get("_meta")
    if not isinstance(meta, dict):
        meta = {}
    meta["file"] = os.path.basename(path)
    meta["schema_version"] = BENCH_SCHEMA_VERSION
    commands = meta.get("regenerate")
    if not isinstance(commands, dict):
        # Legacy layout (schema v1) kept a flat list and PL-specific
        # before/after strings; rebuild from scratch.
        commands = {}
        meta.pop("before", None)
        meta.pop("after", None)
    if regenerate:
        commands[section] = regenerate
    meta["regenerate"] = commands
    context = _metrics_context()
    if context is not None:
        meta.setdefault("metrics", {})[section] = context
    data["_meta"] = meta
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return data
