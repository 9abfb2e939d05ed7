"""Run one workload phase in this fresh interpreter; print results as JSON.

``run.py`` spawns this script once per phase, so process-wide caches
(PL intern tables, ``pl._COMPILE_CACHE``, ``afa._SEARCHER_CACHE``) never
leak between workloads or phases.  The last line on standard output is
one JSON object: ``setup_s`` (from ``--spawned-at``, the parent's clock
just before it started this interpreter, to the end of warm-up, minus
input generation) and, unless ``--setup-only``, the raw results of the
measured phase; both come with the *scales* that put their times on the
reference host's clock (see :func:`calibration_unit` and :func:`scales`).

Run it directly only for debugging, e.g.::

    python3 benchmarks/e2e/phase.py --workload search_cold --seed 1 --requests 5
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import itertools
import json
import resource
import statistics
import sys
import tempfile
import time
import traceback
from collections import deque
from contextlib import nullcontext
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS, Workload  # noqa: E402

#: Seconds :func:`calibration_unit` takes on the reference host, quiet.
#: A time is reported on that host's clock: multiplied by this over the
#: calibration time measured around it (its *scale*).
REFERENCE_CALIBRATION_S = 0.0026

#: Seconds between calibration samples in the measured phase.
CALIBRATION_EVERY_S = 0.05

#: A request's scale uses the calibration samples this close to it.
CALIBRATION_WINDOW_S = 0.25

#: Calibration samples taken right after set-up.
SETUP_CALIBRATIONS = 16

#: A timed phase also stops after this many times ``--seconds`` of wall
#: clock, so a host far slower than the reference cannot stretch a run.
WALL_LIMIT = 1.5


#: The tuple tree :func:`calibration_unit` hashes, built once.
_TREE = tuple(("node", i, (("leaf", f"x{i}"), ("leaf", i * 3))) for i in range(400))


def calibration_unit() -> float:
    """Seconds one fixed task takes on this host right now.

    The task is shaped like the serving stack's work: an int-keyed BFS
    over a dict and a deque (the compiled searchers), SHA-256 over the
    repr of a tuple tree (fingerprints), and a large dict of small
    strings built and copied (translation).  It runs no repro code, so a
    change to the program cannot move it; only the host's speed can.
    It creates only four objects the garbage collector tracks, so it
    does not move the program's collections, and collection is off
    while it runs, so the program's heap cannot slow it.
    """
    gc.disable()
    t0 = time.perf_counter()
    parents = {0: None}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for nxt in ((v * 5 + 1) % 4099, (v * 7 + 3) % 4099):
            if nxt not in parents:
                parents[nxt] = v
                queue.append(nxt)
    hashlib.sha256(repr(_TREE).encode()).digest()
    table = {i: str(i) for i in range(6000)}
    dict(table)
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed


def scales(
    intervals: list[tuple[float, float]], samples: list[tuple[float, float]]
) -> list[float]:
    """The scale of each (start, end) interval from nearby calibration samples.

    A shared host's speed can drift by tens of percent within minutes
    and in bursts; the median of the samples within
    :data:`CALIBRATION_WINDOW_S` of an interval tracks it without
    reacting to one slow sample.
    """
    times = [t for t, _ in samples]
    out = []
    for start, end in intervals:
        lo = bisect.bisect_left(times, start - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(times, end + CALIBRATION_WINDOW_S)
        nearby = [d for _, d in samples[lo:hi]] or [d for _, d in samples]
        out.append(REFERENCE_CALIBRATION_S / statistics.median(nearby))
    return out


def measure(
    workload: Workload,
    seconds: float | None,
    requests: int | None,
    tracer: Any,
) -> dict:
    """The closed loop: one client, next request after the previous answer.

    Stops after ``requests`` requests, or once the time spent inside
    requests reaches ``seconds`` on the reference host's clock, so a run
    does about the same requests however fast the host is right now.
    Building a request (``prepare``) is client work and stays outside
    the timed region, as do the calibration samples taken between
    requests.  Answers are kept for the ground-truth check, which runs
    only after the loop.
    """
    intervals: list[tuple[float, float]] = []
    samples: list[tuple[float, float]] = []
    records: list[tuple] = []
    jobs = raised = 0
    busy = 0.0  # reference-clock seconds inside requests
    halfway = False
    started = next_calibration = time.perf_counter()
    for k in itertools.count():
        now = time.perf_counter()
        if now >= next_calibration:
            samples.append((now, calibration_unit()))
            next_calibration = now + CALIBRATION_EVERY_S
        if requests is not None and k >= requests:
            break
        if requests is None and (busy >= seconds or now - started >= WALL_LIMIT * seconds):
            break
        if not halfway and (busy >= seconds / 2 if requests is None else k >= requests // 2):
            workload.midpoint()
            halfway = True
        request = workload.prepare(k)
        span = tracer.request() if tracer is not None else nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                answers = workload.serve(request)
        except Exception:  # noqa: BLE001 - a failed request is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            answers = None
        t1 = time.perf_counter()
        recent = statistics.median(d for _, d in samples[-8:])
        busy += (t1 - t0) * REFERENCE_CALIBRATION_S / recent
        intervals.append((t0, t1))
        jobs += workload.jobs(request)
        if answers is None:
            raised += workload.jobs(request)
        else:
            records.append((request, answers))
    return {
        "latencies_s": [t1 - t0 for t0, t1 in intervals],
        "scales": scales(intervals, samples),
        "scale": REFERENCE_CALIBRATION_S / statistics.median(d for _, d in samples),
        "jobs": jobs,
        "raised": raised,
        "records": records,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    bound = parser.add_mutually_exclusive_group(required=True)
    bound.add_argument("--seconds", type=float)
    bound.add_argument("--requests", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spawned-at", type=float, default=time.time())
    args = parser.parse_args(argv)

    # Under the TMPDIR run.py picked inside the checkout; fresh per phase,
    # so no phase sees another's store.
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-")
    workload = WORKLOADS[args.workload](args.seed, work_dir, args.smoke)
    t0 = time.perf_counter()
    workload.generate()
    generation_s = time.perf_counter() - t0

    tracer = None
    if args.trace:
        # Imported only here: untraced set-up times the program's imports.
        from layers import Tracer

        tracer = Tracer()
        tracer.install()  # before the service and pool exist: workers inherit it
    workload.open()
    workload.warm_up()
    setup = {
        "setup_s": time.time() - args.spawned_at - generation_s,
        "setup_scale": REFERENCE_CALIBRATION_S
        / statistics.median(calibration_unit() for _ in range(SETUP_CALIBRATIONS)),
    }
    if args.setup_only:
        workload.close()
        print(json.dumps(setup), flush=True)
        return 0
    if tracer is not None:
        tracer.start()

    run = measure(workload, args.seconds, args.requests, tracer)
    workload.close()  # joins pool workers and merges their last spans
    if tracer is not None:
        tracer.stop()
    # Before the check, whose from-scratch solves are not the workload's.
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    run.update(
        setup,
        workload=args.workload,
        wrong=workload.verify(run.pop("records")),
        peak_rss_mb=(self_kb + child_kb) / 1024.0,
    )
    if tracer is not None:
        run["layers"] = tracer.report(run, workers=workload.pool_workers)
    print(json.dumps(run), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
