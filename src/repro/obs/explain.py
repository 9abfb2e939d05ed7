"""``python -m repro.obs explain`` — why was this solve slow?

Fuses everything a trace records into one ranked diagnosis:

* **Spans** (:mod:`repro.obs.report` aggregates) — which procedures ran,
  how often, errors;
* **Critical path** (:mod:`repro.obs.critical_path`) — the dominant
  root-to-leaf chain and per-name self-time, naming the dominant phase;
* **Progress curves** (``progress`` events from
  :mod:`repro.obs.progress`) — frontier growth and steps/sec trend per
  checkpoint site, the evidence that distinguishes "the frontier
  exploded" from "per-step cost collapsed";
* **Guard trips** — which limit fired and, from the final progress
  event's ``headroom``, how close the *other* limits were (a deadline
  trip with 95% of the step budget left means slow steps, not many).

The output is a ranked list of findings, most indicative first, each a
single sentence with its numbers — the report a human would write after
opening the raw trace, produced mechanically.  Parsing is lenient:
truncated lines from killed workers are warned about and skipped.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from repro.obs.critical_path import SpanNode, build_tree, dominant_chain, self_time_by_name
from repro.obs.report import SpanAggregate, aggregate


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.1f}µs"


def _fmt_rate(rate: float) -> str:
    if rate >= 1e6:
        return f"{rate / 1e6:.2f}M/s"
    if rate >= 1e3:
        return f"{rate / 1e3:.1f}k/s"
    return f"{rate:.1f}/s"


class SiteCurve:
    """The progress-event series for one checkpoint site."""

    def __init__(self, site: str) -> None:
        self.site = site
        self.events: list[dict[str, Any]] = []

    def add(self, event: dict[str, Any]) -> None:
        self.events.append(event)

    @property
    def last(self) -> dict[str, Any]:
        return self.events[-1]

    @property
    def steps(self) -> int:
        return int(self.last.get("steps", 0))

    @property
    def tripped(self) -> str | None:
        for event in reversed(self.events):
            if event.get("tripped"):
                return str(event["tripped"])
        return None

    def frontier_trend(self) -> tuple[int, int] | None:
        """(first, last) reported frontier sizes, or ``None``."""
        sizes = [e["frontier"] for e in self.events if "frontier" in e]
        if len(sizes) < 2:
            return None
        return int(sizes[0]), int(sizes[-1])

    def rate_trend(self) -> tuple[float, float] | None:
        """(early, late) steps/sec — mean of first vs last half."""
        rates = [
            float(e["steps_per_s"])
            for e in self.events
            if e.get("steps_per_s")
        ]
        if len(rates) < 2:
            return None
        half = max(1, len(rates) // 2)
        early = sum(rates[:half]) / half
        late = sum(rates[half:]) / len(rates[half:])
        return early, late

    def headroom(self) -> Mapping[str, float] | None:
        for event in reversed(self.events):
            if isinstance(event.get("headroom"), Mapping):
                return event["headroom"]
        return None


def split_events(
    events: Iterable[dict[str, Any]],
) -> tuple[list[dict[str, Any]], dict[str, SiteCurve]]:
    """Partition a trace into span events and per-site progress curves."""
    spans: list[dict[str, Any]] = []
    curves: dict[str, SiteCurve] = {}
    for event in events:
        kind = event.get("event")
        if kind == "span":
            spans.append(event)
        elif kind == "progress":
            site = str(event.get("site", "<unknown>"))
            curves.setdefault(site, SiteCurve(site)).add(event)
    return spans, curves


def findings(
    spans: list[dict[str, Any]],
    curves: dict[str, SiteCurve],
    aggregates: dict[str, SpanAggregate],
    roots: list[SpanNode],
) -> list[str]:
    """The ranked single-sentence findings."""
    out: list[str] = []
    chain = dominant_chain(roots)
    wall = chain[0].elapsed_s if chain else 0.0

    # 1. The dominant phase: largest self-time across the forest.
    totals = self_time_by_name(roots)
    grand = sum(t for t, _ in totals.values())
    if totals and grand > 0:
        name, (self_s, count) = max(totals.items(), key=lambda kv: kv[1][0])
        out.append(
            f"dominant phase: {name!r} holds {self_s / grand:.0%} of "
            f"self-time ({_fmt_seconds(self_s)} across {count} span(s))"
        )

    # 2. Guard trips, with cross-limit headroom from the progress stream.
    tripped = [
        (agg.name, limit, count)
        for agg in aggregates.values()
        for limit, count in sorted(agg.trips.items())
    ]
    for name, limit, count in tripped:
        sentence = f"guard tripped: {name!r} hit the {limit} limit {count}×"
        for curve in curves.values():
            if curve.tripped != limit:
                continue
            headroom = curve.headroom()
            if headroom:
                others = ", ".join(
                    f"{k} {v:.0%} left"
                    for k, v in sorted(headroom.items())
                    if k != limit
                )
                if others:
                    sentence += f" (at the trip: {others})"
            sentence += (
                f" — last progress at {curve.site!r}: "
                f"{curve.steps} steps"
            )
            frontier = curve.last.get("frontier")
            if frontier is not None:
                sentence += f", frontier {frontier}"
            break
        out.append(sentence)

    # 3. Frontier growth per site: the antichain-pruning evidence.
    for curve in sorted(curves.values(), key=lambda c: -c.steps):
        trend = curve.frontier_trend()
        if trend is None:
            continue
        first, last = trend
        peak = max(
            int(e.get("peak_frontier", e.get("frontier", 0)))
            for e in curve.events
        )
        if last >= max(4, 2 * max(first, 1)):
            out.append(
                f"frontier growth: {curve.site!r} grew {first} → {last} "
                f"(peak {peak}) over {curve.steps} steps — the search is "
                f"widening, pruning would pay here"
            )
        elif peak:
            out.append(
                f"frontier stable: {curve.site!r} peaked at {peak} "
                f"(now {last}) over {curve.steps} steps"
            )

    # 4. Throughput decay: per-step cost rising as the search deepens.
    for curve in sorted(curves.values(), key=lambda c: -c.steps):
        trend = curve.rate_trend()
        if trend is None:
            continue
        early, late = trend
        if early > 0 and late < 0.5 * early:
            out.append(
                f"throughput decay: {curve.site!r} slowed "
                f"{_fmt_rate(early)} → {_fmt_rate(late)} — per-step cost "
                f"is rising (larger vectors, denser frontier)"
            )

    # 5. Span errors are always worth surfacing.
    for agg in sorted(aggregates.values(), key=lambda a: -a.errors):
        if agg.errors:
            out.append(
                f"errors: {agg.name!r} raised in {agg.errors}/{agg.count} "
                f"span(s)"
            )

    # 6. Critical-path shape: where along the chain the time pools.
    if len(chain) > 1 and wall > 0:
        hot = max(chain, key=lambda n: n.self_s)
        out.append(
            f"critical path: {' → '.join(n.name for n in chain)}; "
            f"{hot.name!r} holds {_fmt_seconds(hot.self_s)} of its own "
            f"({hot.self_s / wall:.0%} of the {_fmt_seconds(wall)} root)"
        )
    return out


def render(
    spans: list[dict[str, Any]],
    curves: dict[str, SiteCurve],
    aggregates: dict[str, SpanAggregate],
    roots: list[SpanNode],
    limit: int | None = None,
) -> str:
    """The explain report as printable text."""
    if not spans and not curves:
        return "trace contains no span or progress events\n"
    lines = findings(spans, curves, aggregates, roots)
    if limit is not None:
        lines = lines[:limit]
    if not lines:
        lines = ["nothing stands out: no dominant phase, trips, or trends"]
    numbered = [f"{i}. {line}" for i, line in enumerate(lines, 1)]
    progress_note = (
        f"{sum(len(c.events) for c in curves.values())} progress event(s) "
        f"across {len(curves)} site(s)"
        if curves
        else "no progress events (enable with REPRO_PROGRESS=1)"
    )
    header = (
        f"explain: {len(spans)} span(s), {progress_note}",
        "",
    )
    return "\n".join([*header, *numbered, ""])


def explain(
    paths: Sequence[str],
    limit: int | None = None,
    on_skip: Any = None,
) -> str:
    """Render the diagnosis for one or more trace files (lenient parse)."""
    from repro.obs._tracer import iter_events

    events: list[dict[str, Any]] = []
    for index, path in enumerate(paths):
        for event in iter_events(path, strict=False, on_skip=on_skip):
            if len(paths) > 1:
                # Span ids restart per trace file; scope them like
                # critical_path does so the tree builds correctly.
                event = dict(event)
                event["_source"] = index
            events.append(event)
    spans, curves = split_events(events)
    return render(spans, curves, aggregate(spans), build_tree(spans), limit=limit)
