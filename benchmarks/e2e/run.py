"""The repository's end-to-end benchmark: served ``nonempty_pl`` jobs.

One command runs a workload (or ``all`` five), prints every metric by
name with its unit, checks every answer, and ends with one JSON line::

    python3 benchmarks/e2e/run.py --workload search_cold --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports the per-layer metrics instead.  ``--out FILE``
appends the run to a results file, and two such files are compared with::

    python3 benchmarks/e2e/run.py compare A.json B.json

Every phase runs in a fresh interpreter (``phase.py``): the untraced run
is one measured phase plus four set-up-only phases, whose median set-up
time is ``setup_s``; the traced run is an untraced and a traced phase of
the same fixed request count, whose throughput ratio is
``trace.overhead_ratio``.  Times are reported on the reference host's
clock (see ``phase.calibration_unit``); the raw wall-clock values are
printed too.  See ``README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
PHASE = HERE / "phase.py"
WORK = ROOT / ".bench_work"

#: Requests per second of each workload, untraced, on the reference
#: clock.  The ``--trace 1`` run sizes its fixed request count from
#: these and ``--seconds``, so that its counters cover the same requests
#: on every run of a seed.
TRACE_RATES = {
    "search_cold": 12.0,
    "build_cold": 16.0,
    "serve_mix_inline": 170.0,
    "serve_mix_pool": 170.0,
    "edit_recheck": 22.0,
}

#: Untraced phases per run that each time set-up; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Requests per phase under ``--smoke`` (a functional check, not a measurement).
SMOKE_REQUESTS = 6

#: ``layers.unattributed_share`` above this fails the traced run.
MAX_UNATTRIBUTED = 0.10

#: Wall-clock limit of one workload's run, including every phase it spawns.
RUN_LIMIT_S = 170.0


class PhaseError(RuntimeError):
    pass


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def child_env(work_dir: Path) -> dict[str, str]:
    """The phases' environment: no ``REPRO_*`` switches, temp files in the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["TMPDIR"] = str(work_dir)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_phase(args: list[str], env: dict[str, str], deadline: float) -> dict:
    """Run ``phase.py`` in a fresh interpreter; its last stdout line is JSON."""
    command = [sys.executable, str(PHASE), *args, "--spawned-at", repr(time.time())]
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the phase and its pool workers
        proc.communicate()
        raise PhaseError(f"phase {' '.join(args)} ran past the time limit") from None
    if proc.returncode != 0:
        raise PhaseError(f"phase {' '.join(args)} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def latency_metrics(phase: dict, scaled: bool) -> dict[str, float]:
    """Latency percentiles and throughput of a measured phase.

    ``scaled`` puts every request on the reference host's clock first.
    """
    latencies = phase["latencies_s"]
    if scaled:
        latencies = [t * s for t, s in zip(latencies, phase["scales"])]
    return {
        "req_p50_ms": 1e3 * statistics.median(latencies),
        "req_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[-1],
        "jobs_per_s": (phase["jobs"] - phase["raised"]) / sum(latencies),
    }


def end_to_end(workload: str, args: argparse.Namespace, units: dict, env, deadline) -> tuple:
    base = ["--workload", workload, "--seed", str(args.seed)]
    if args.smoke:
        base += ["--smoke", "--requests", str(SMOKE_REQUESTS)]
    else:
        base += ["--seconds", repr(args.seconds)]
    main = run_phase(base, env, deadline)
    setups = [main] + [
        run_phase(base + ["--setup-only"], env, deadline)
        for _ in range(1 if args.smoke else SETUP_REPEATS - 1)
    ]
    values = latency_metrics(main, scaled=True)
    values["setup_s"] = statistics.median(p["setup_s"] * p["setup_scale"] for p in setups)
    values["peak_rss_mb"] = main["peak_rss_mb"]
    raw = latency_metrics(main, scaled=False)
    raw["setup_s"] = statistics.median(p["setup_s"] for p in setups)
    notes = {
        "requests": len(main["latencies_s"]),
        "host scale": main["scale"],
        "raw": {name: round(value, 4) for name, value in raw.items()},
    }
    return values, [main], notes


def per_layer(workload: str, args: argparse.Namespace, units: dict, env, deadline) -> tuple:
    # A fixed count, half of --seconds per phase at the reference rate.
    if args.smoke:
        count = SMOKE_REQUESTS
    else:
        count = max(20, round(TRACE_RATES[workload] * args.seconds / 2))
    base = ["--workload", workload, "--seed", str(args.seed), "--requests", str(count)]
    base += ["--smoke"] if args.smoke else []
    plain = run_phase(base, env, deadline)
    traced = run_phase(base + ["--trace"], env, deadline)
    scale = traced["scale"]
    values = {
        name: value * scale if units[name] == "ms" else value
        for name, value in traced["layers"]["metrics"].items()
    }
    values["trace.overhead_ratio"] = (
        latency_metrics(traced, scaled=True)["jobs_per_s"]
        / latency_metrics(plain, scaled=True)["jobs_per_s"]
    )
    notes = {"requests": count, "host scale": scale, "shares": traced["layers"]["shares"]}
    return values, [plain, traced], notes


def run_workload(workload: str, args: argparse.Namespace, spec: dict, env, deadline) -> tuple:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    measure = per_layer if args.trace else end_to_end
    values, phases, notes = measure(workload, args, units, env, deadline)
    attempted = sum(p["jobs"] for p in phases)
    failed = sum(p["raised"] + p["wrong"] for p in phases)
    correct = failed == 0
    if args.trace and values["layers.unattributed_share"] > MAX_UNATTRIBUTED:
        print(
            f"{workload}: layers account for only "
            f"{1 - values['layers.unattributed_share']:.1%} of request time "
            f"(need {1 - MAX_UNATTRIBUTED:.0%})",
            file=sys.stderr,
        )
        correct = False
    for name, value in values.items():
        print(f"{workload:<17} {name:<28} {value:14.6g} {units[name]}")
    for key, value in notes.items():
        if key == "shares":
            table = ", ".join(f"{layer} {share:.1%}" for layer, share in sorted(
                value.items(), key=lambda item: -item[1]))
            print(f"{workload:<17} request time by layer: {table}")
        else:
            print(f"{workload:<17} {key}: {value}")
    print(f"{workload:<17} error_rate {failed}/{attempted}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }, notes


def append_record(path: str, record: dict) -> None:
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except FileNotFoundError:
        document = {"runs": []}
    document["runs"].append(record)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        from compare import main as compare_main

        return compare_main(argv[1:])
    spec = benchmark_spec()
    workloads = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n", 1)[0],
        epilog="Also: run.py compare A.json B.json",
    )
    parser.add_argument("--workload", default="all", choices=["all"] + workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measured time (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run to this results file (for compare)")
    parser.add_argument("--smoke", action="store_true", help="tiny instances, a few requests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    # The build step: byte-compile once per checkout, outside any timing.
    if not compileall.compile_dir(ROOT / "src", quiet=1) or not compileall.compile_dir(HERE, quiet=1):
        print("run.py: byte-compilation failed", file=sys.stderr)
        return 2
    work_dir = WORK / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    env = child_env(work_dir)
    names = workloads if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + RUN_LIMIT_S
            results[name], notes = run_workload(name, args, spec, env, deadline)
            if args.out:
                append_record(args.out, {
                    "workload": name, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "smoke": args.smoke, "result": results[name],
                    "notes": notes,
                })
    except PhaseError as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
