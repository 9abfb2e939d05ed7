"""``python -m repro.delta`` — incremental re-solving CLI.

Subcommands:

* ``diff --trace module:function [--json]`` — build an edit-script
  trace (a factory returning a list of SWS versions, restricted to
  ``repro.workloads`` modules) and print the structural delta between
  consecutive versions: changed/added/removed states and whether the
  globals or alphabet moved.
* ``replay --trace module:function [--procedure P] [--compare]
  [--require-warm N] [--cache-dir D] [--budget STEPS] [--json]`` —
  replay the trace through one :class:`repro.delta.Session`:
  check version 0 from scratch, then ``edit``/``recheck`` each
  successive version and report the re-check mode, latency, and
  verdict per step, then a summary: the re-checks per mode, and how
  many edits had their delta derived from the previous version
  (``SWS.replace`` copies) or diffed in full.  ``--compare`` also
  solves every version from scratch and fails on any verdict mismatch
  (the incremental == from-scratch contract); ``--require-warm N``
  fails unless at least ``N`` re-checks avoided the full path — the CI
  smoke uses it to assert the delta machinery actually engaged.

Trace factories live in :mod:`repro.workloads.editing`, e.g.::

    python -m repro.delta replay --trace repro.workloads.editing:menu_editing_trace
    python -m repro.delta replay --trace repro.workloads.editing:flip_trace --compare
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from repro.delta.diff import compute_delta
from repro.delta.session import Session
from repro.serve.fingerprint import sub_fingerprints
from repro.serve.registry import get_procedure, resolve_factory


def _build_trace(args: argparse.Namespace) -> list[Any]:
    factory = resolve_factory(args.trace)
    trace = factory(*(json.loads(arg) for arg in args.arg))
    if not isinstance(trace, (list, tuple)) or len(trace) < 2:
        raise SystemExit(
            f"{args.trace}: trace factory must return >= 2 instance versions"
        )
    return list(trace)


def _emit(record: dict[str, Any], as_json: bool, text: str) -> None:
    if as_json:
        print(json.dumps(record, sort_keys=True))
    else:
        print(text)


def _cmd_diff(args: argparse.Namespace) -> int:
    trace = _build_trace(args)
    trees = [sub_fingerprints(sws) for sws in trace]
    for step in range(1, len(trace)):
        base, new = trace[step - 1], trace[step]
        delta = compute_delta(base, new, trees[step - 1], trees[step])
        record = {"step": step, "name": new.name, **delta.as_dict()}
        kind = (
            "empty"
            if delta.is_empty
            else "local" if delta.is_local else "global"
        )
        _emit(
            record,
            args.json,
            f"step {step}: {kind:<6} "
            f"changed={sorted(delta.changed_states)} "
            f"added={sorted(delta.added_states)} "
            f"removed={sorted(delta.removed_states)} "
            f"alphabet_changed={delta.alphabet_changed}",
        )
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    trace = _build_trace(args)
    cache = None
    if args.cache_dir:
        from repro.serve.cache import AnswerCache

        cache = AnswerCache(directory=args.cache_dir)
    budget = args.budget if args.budget else None
    scratch = get_procedure(args.procedure) if args.compare else None
    mismatches = 0
    try:
        session = Session(
            trace[0], args.procedure, cache=cache, budget=budget
        )
        first = session.check()
        _emit(
            {"step": 0, "mode": "solve", "verdict": first.verdict.value},
            args.json,
            f"step 0: solve   verdict={first.verdict.value}",
        )
        for step, version in enumerate(trace[1:], start=1):
            session.edit(version)
            result = session.recheck()
            record = {"step": step, "name": version.name, **result.as_dict()}
            line = (
                f"step {step}: {result.mode:<7} "
                f"verdict={result.answer.verdict.value} "
                f"{result.elapsed_s * 1e3:.2f}ms"
            )
            if scratch is not None:
                expected = scratch(version, guard=budget, **session.kwargs)
                record["expected"] = expected.verdict.value
                if expected.verdict is not result.answer.verdict:
                    mismatches += 1
                    line += f"  MISMATCH (scratch={expected.verdict.value})"
            _emit(record, args.json, line)
        stats = session.stats()
        _emit(
            {"_summary": stats},
            args.json,
            "modes: "
            + ", ".join(f"{n} {m}" for m, n in stats["modes"].items())
            + f"; {stats['incremental_rechecks']} incremental "
            f"of {stats['rechecks']} rechecks"
            f"; edits: {stats['edits']['derived']} derived, "
            f"{stats['edits']['diffed']} diffed",
        )
    finally:
        if cache is not None:
            cache.close()
    if mismatches:
        print(
            f"FAIL: {mismatches} verdict mismatch(es) vs from-scratch",
            file=sys.stderr,
        )
        return 1
    if stats["incremental_rechecks"] < args.require_warm:
        print(
            f"FAIL: {stats['incremental_rechecks']} incremental recheck(s), "
            f"need >= {args.require_warm}",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.delta",
        description="Incremental re-solving for edited services.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _trace_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trace",
            required=True,
            help="module:function returning a list of instance versions "
            "(repro.workloads modules only)",
        )
        p.add_argument(
            "--arg",
            action="append",
            default=[],
            help="positional JSON argument for the trace factory (repeatable)",
        )
        p.add_argument("--json", action="store_true", help="JSONL output")

    diff = sub.add_parser("diff", help="print per-step structural deltas")
    _trace_common(diff)
    diff.set_defaults(func=_cmd_diff)

    replay = sub.add_parser(
        "replay", help="replay an edit script through one Session"
    )
    _trace_common(replay)
    replay.add_argument(
        "--procedure",
        default="nonempty_pl",
        help="incrementally re-checkable procedure (default: nonempty_pl)",
    )
    replay.add_argument(
        "--compare",
        action="store_true",
        help="also solve each version from scratch; fail on verdict mismatch",
    )
    replay.add_argument(
        "--require-warm",
        type=int,
        default=0,
        metavar="N",
        help="fail unless >= N re-checks avoided the full path",
    )
    replay.add_argument(
        "--cache-dir",
        default=None,
        help="answer cache directory (re-checked answers persist in its store)",
    )
    replay.add_argument(
        "--budget",
        type=int,
        default=0,
        metavar="STEPS",
        help="per-check step budget (0 = unguarded)",
    )
    replay.set_defaults(func=_cmd_replay)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
