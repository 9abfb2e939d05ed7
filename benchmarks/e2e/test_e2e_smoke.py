"""Smoke test of the benchmark command, every workload at a tiny size.

Each workload runs once untraced and twice traced through ``run.py
--smoke``.  The test checks that no answer is wrong, that exactly the
metrics ``BENCHMARK.json`` declares are emitted, and that the exact
counters repeat between two traced runs of one seed.
"""

import json
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from compare import EXACT

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
RUNS = [(workload, trace) for workload in WORKLOADS for trace in (0, 1, 1)]


def _run(workload, trace, root=ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", "7", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def results():
    with ThreadPoolExecutor(max_workers=2) as pool:
        procs = list(pool.map(lambda run: _run(*run), RUNS))
    for run, proc in zip(RUNS, procs):
        assert proc.returncode == 0, (run, proc.stderr)
    outputs: dict = {}
    for run, proc in zip(RUNS, procs):
        outputs.setdefault(run, []).append(json.loads(proc.stdout.splitlines()[-1]))
    return outputs


def test_every_answer_is_right(results):
    for run, outputs in results.items():
        for output in outputs:
            assert output["correct"], run
            assert output["attempted"] > 0 and output["failed"] == 0, run


def test_emits_exactly_the_declared_metrics(results):
    declared = {
        0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    for (workload, trace), outputs in results.items():
        for output in outputs:
            emitted = {name: m["unit"] for name, m in output["metrics"].items()}
            assert emitted == declared[trace], workload


def test_exact_counters_repeat(results):
    for workload in WORKLOADS:
        first, second = results[(workload, 1)]
        for name in EXACT:
            assert first["metrics"][name] == second["metrics"][name], (workload, name)


def test_fails_without_the_program(tmp_path):
    """A checkout holding only the benchmark must fail, printing no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
