"""Compare two results files written by ``run.py --out``.

Usage::

    python3 benchmarks/e2e/run.py compare A.json B.json

A is the baseline, B the candidate.  For every workload and metric it
prints A's and B's median with quartiles, the change of B's median as a
share of A's, the metric's bound from ``BENCHMARK.json`` and a verdict:

* ``ok`` — B is no worse than A by more than the bound;
* ``regressed`` — B is worse by more than the bound, and the spread
  (quartile distance over median, the wider of A and B) is within it;
* ``unresolved`` — the spread is wider than the bound, unless every run
  of B reads better than every run of A;
* ``mismatch`` — an exact counter differs between runs of one seed
  within A or within B: the counter is not deterministic;
* ``changed`` — an exact counter is the same in every run of a seed on
  each side, but A and B differ (expected when B changes the work done);
* ``info`` — a per-layer metric with no bound.

``error_rate`` (failed / attempted jobs) regresses on any increase.
The exit status is 1 when anything regressed or mismatched.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Per-layer counters that are a function of the seed alone; every run
#: of one seed must report the same value.
EXACT = frozenset(
    {
        "search.vectors_per_job",
        "search.pre_steps_per_job",
        "afa.symbol_classes_per_job",
        "store.disk_hits",
        "pool.payload_kb_per_job",
        "delta.share.replay",
        "delta.share.warm",
        "delta.share.full",
        "delta.share.cached",
    }
)


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["runs"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median (0 for a zero median)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a: list[float], b: list[float], bound: float, better: str) -> tuple[str, float]:
    """The verdict and B's change against A (positive = worse)."""
    sign = 1.0 if better == "lower" else -1.0
    median_a = statistics.median(a)
    worse = sign * (statistics.median(b) - median_a) / abs(median_a) if median_a else 0.0
    if max(spread(a), spread(b)) > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "ok", worse
        return "unresolved", worse
    return ("regressed" if worse > bound else "ok"), worse


def compare(a_runs: list[dict], b_runs: list[dict], spec: dict) -> tuple[list[tuple], bool]:
    """Rows of (workload, metric, A values, B values, change, bound, verdict)."""
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    values: dict[tuple[str, str], tuple[list, list]] = defaultdict(lambda: ([], []))
    per_seed: dict[tuple, tuple[set, set]] = defaultdict(lambda: (set(), set()))
    errors: dict[str, list[list[int]]] = defaultdict(lambda: [[0, 0], [0, 0]])
    for side, runs in enumerate((a_runs, b_runs)):
        for run in runs:
            result = run["result"]
            workload = run["workload"]
            errors[workload][side][0] += result["failed"]
            errors[workload][side][1] += result["attempted"]
            for name, metric in result["metrics"].items():
                values[(workload, name)][side].append(metric["value"])
                if name in EXACT:
                    per_seed[(workload, name, run["seed"], run["seconds"])][side].add(
                        metric["value"]
                    )
    rows = []
    failed = False
    for (workload, name), (a, b) in sorted(values.items()):
        if not a or not b:
            continue
        if name in EXACT:
            seeds = [sides for key, sides in per_seed.items() if key[:2] == (workload, name)]
            if any(len(a_seen) > 1 or len(b_seen) > 1 for a_seen, b_seen in seeds):
                result = "mismatch"
            elif any(a_seen and b_seen and a_seen != b_seen for a_seen, b_seen in seeds):
                result = "changed"
            else:
                result = "ok"
            change = verdict(a, b, float("inf"), metrics[name]["better"])[1]
        elif "bound" in metrics[name]:
            bound = metrics[name]["bound"]
            result, change = verdict(a, b, bound, metrics[name]["better"])
        else:
            result, change = "info", verdict(a, b, float("inf"), metrics[name]["better"])[1]
        failed |= result in ("regressed", "mismatch")
        rows.append((workload, name, a, b, change, metrics[name].get("bound"), result))
    for workload, ((fa, ta), (fb, tb)) in sorted(errors.items()):
        rate_a = fa / ta if ta else 0.0
        rate_b = fb / tb if tb else 0.0
        result = "regressed" if rate_b > rate_a else "ok"
        failed |= result == "regressed"
        rows.append((workload, "error_rate", [rate_a], [rate_b], rate_b - rate_a, 0.0, result))
    return rows, failed


def _describe(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:12.6g} [{q1:.4g}, {q3:.4g}]"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    rows, failed = compare(load(argv[0]), load(argv[1]), spec)
    print(f"{'workload':<17} {'metric':<28} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'change':>8} {'bound':>6}  verdict")
    for workload, name, a, b, change, bound, result in rows:
        bound_text = "exact" if name in EXACT else ("-" if bound is None else f"{bound:.0%}")
        print(f"{workload:<17} {name:<28} {_describe(a):>34} {_describe(b):>34} "
              f"{change:+8.1%} {bound_text:>6}  {result}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
