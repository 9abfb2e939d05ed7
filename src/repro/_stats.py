"""Process-wide work counters for the decision procedures.

This is a dependency-free leaf module so that the lowest layers (the PL
formula engine, the AFA engine, the SAT solver, the UCQ expander) can
count work without import cycles.  The public face is
:mod:`repro.analysis.stats`, which re-exports everything here; benchmarks
and analyses read counters through that module.

The counters report *work done* rather than wall-clock: vectors explored
and pre-steps taken by the AFA searches, DPLL calls and decisions, UCQ
expansion disjuncts, interning/compilation cache behaviour, and mediator
candidate counts.  ``STATS`` is a singleton; ``STATS.reset()`` zeroes it
(cache-size gauges included) and returns it for chaining.

``STATS.reset()`` is a *global* operation: nested or back-to-back
measurements that each reset the singleton clobber one another.  Scoped
measurement goes through :func:`stats_delta` instead — a snapshot-diff
context manager that never mutates the counters, so deltas compose under
nesting (an outer delta includes its inner deltas, and siblings do not
interfere).  :mod:`repro.obs` builds its per-span counter attribution on
the same snapshot-diff primitive.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class Stats:
    """Mutable counter block; attributes are plain ints."""

    # AFA vector searches.
    vectors_explored: int = 0
    pre_steps: int = 0
    afa_compilations: int = 0
    alphabet_symbols: int = 0
    symbol_classes: int = 0

    # PL formula engine.
    intern_hits: int = 0
    intern_misses: int = 0
    simplify_memo_hits: int = 0
    compile_cache_hits: int = 0
    compile_cache_misses: int = 0

    # SAT solver.
    sat_calls: int = 0
    dpll_decisions: int = 0

    # UCQ expansion / relational engines.
    expansion_disjuncts: int = 0
    runs_executed: int = 0

    # Mediator procedures.
    component_runs: int = 0
    mediator_candidates: int = 0

    def reset(self) -> "Stats":
        """Zero every counter; returns self for chaining."""
        for field in fields(self):
            setattr(self, field.name, 0)
        return self

    def snapshot(self) -> dict[str, int]:
        """The counters as a plain dict (for JSON export)."""
        return {field.name: getattr(self, field.name) for field in fields(self)}


STATS = Stats()


class StatsDelta:
    """Counter deltas across a ``with`` block, without touching ``STATS``.

    Usage::

        with stats_delta() as work:
            nonempty_pl(service)
        print(work["vectors_explored"], work.nonzero())

    The delta is the element-wise difference between the counters at exit
    and at enter; reading it *inside* the block diffs against the live
    counters instead, so progress can be inspected mid-measurement.
    Because nothing is reset, deltas nest and run back-to-back without
    clobbering each other or the global singleton.
    """

    def __init__(self, stats: Stats | None = None) -> None:
        self._stats = stats if stats is not None else STATS
        self._before: dict[str, int] | None = None
        self._after: dict[str, int] | None = None

    def __enter__(self) -> "StatsDelta":
        self._before = self._stats.snapshot()
        self._after = None
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Record the delta even when the block raises: partial work done
        # before an exception is still work done.
        self._after = self._stats.snapshot()

    def as_dict(self) -> dict[str, int]:
        """The full delta (every counter, zeros included)."""
        if self._before is None:
            raise RuntimeError("stats_delta() read before entering the block")
        after = self._after if self._after is not None else self._stats.snapshot()
        return {name: after[name] - self._before[name] for name in after}

    def nonzero(self) -> dict[str, int]:
        """Only the counters that moved during the block."""
        return {name: value for name, value in self.as_dict().items() if value}

    def __getitem__(self, name: str) -> int:
        return self.as_dict()[name]

    def get(self, name: str, default: int = 0) -> int:
        return self.as_dict().get(name, default)

    def items(self):
        return self.as_dict().items()

    def __repr__(self) -> str:
        if self._before is None:
            return "StatsDelta(unentered)"
        return f"StatsDelta({self.nonzero()!r})"


def stats_delta(stats: Stats | None = None) -> StatsDelta:
    """A scoped snapshot-diff over ``STATS`` (or an explicit ``Stats``)."""
    return StatsDelta(stats)
