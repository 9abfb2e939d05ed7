"""``python -m repro.obs explain TRACE... [--limit N]`` — the trace reader.

One report in three sections, one per question a trace answers:

* **Where the time went** — the dominant phase (the span name holding
  the most self time), the dominant chain (from the slowest root into
  the slowest child at each hop, :mod:`repro.obs.critical_path`) with
  each hop's total and self share and worker pid, then self time by
  span name.
* **How much work was done** — per span name: count, errors,
  total/mean/max wall-clock, the dominant counters (``vectors_explored``,
  ``pre_steps``, ``dpll_decisions``, ...) and the slowest span's id and
  attributes.  Then, from ``progress`` events
  (:mod:`repro.obs.progress`), frontier growth and throughput decay per
  checkpoint site: the evidence that tells "the frontier exploded" from
  "per-step cost collapsed".
* **Whether and why a budget tripped** — trip counts per span and
  limit, with the other limits' headroom at the trip and the last
  progress event there (a deadline trip with 95% of the step budget
  left means slow steps, not many).

``--limit N`` caps every table and list at N rows; with no limit every
row prints.  Traces are read through :func:`repro.obs.report.load_events`:
files or globs, with truncated lines from killed workers warned about
and skipped.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from repro.obs.critical_path import SpanNode, build_tree, dominant_chain, self_time_by_name
from repro.obs.report import SpanAggregate, aggregate, load_events

#: The section headers, in print order.
SECTIONS = (
    "where the time went",
    "how much work was done",
    "whether and why a budget tripped",
)


def format_seconds(seconds: float | None) -> str:
    """A duration as ``1.234s``, ``12.34ms`` or ``5.6µs``; ``-`` for none."""
    if seconds is None:
        return "-"
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

    def trip(self, limit: str) -> tuple[dict[str, Any], Mapping[str, float]] | None:
        """The newest event recording a ``limit`` trip, with the headroom
        last reported before it (the trip event itself carries none)."""
        found = None
        headroom: Mapping[str, float] = {}
        for event in self.events:
            if isinstance(event.get("headroom"), Mapping):
                headroom = event["headroom"]
            if event.get("tripped") == limit:
                found = (event, headroom)
        return found


def _time_section(roots: list[SpanNode], limit: int | None) -> list[str]:
    """The dominant phase, the dominant chain, and self time by span name."""
    if not roots:
        return ["no span events"]
    chain = dominant_chain(roots)
    wall = chain[0].elapsed_s or 1e-12
    totals = self_time_by_name(roots)
    grand = sum(t for t, _ in totals.values()) or 1e-12
    ranked = sorted(totals.items(), key=lambda kv: -kv[1][0])
    name, (self_s, count) = ranked[0]
    lines = [
        f"dominant phase: {name!r} holds {self_s / grand:.0%} of self-time "
        f"({format_seconds(self_s)} across {count} span(s))",
        "",
        f"dominant chain (root {chain[0].name!r}, "
        f"{format_seconds(chain[0].elapsed_s)} wall-clock):",
    ]
    labels = [f"{'  ' * d}{'└─ ' * bool(d)}{n.name}" for d, n in enumerate(chain)]
    width = max(len(label) for label in labels)
    for label, node in zip(labels, chain):
        worker = node.key[0].rpartition(":")[2]
        lines.append(
            f"{label:<{width}}  total {format_seconds(node.elapsed_s):>9} "
            f"({node.elapsed_s / wall:5.1%})  "
            f"self {format_seconds(node.self_s):>9} ({node.self_s / wall:5.1%})"
            + (f"  worker={worker}" if worker else "")
        )
    ranked = ranked[:limit]
    width = max(len(name) for name, _ in ranked)
    lines += ["", "self time by span name:"]
    for name, (self_s, count) in ranked:
        lines.append(
            f"  {name:<{width}}  {format_seconds(self_s):>9}  "
            f"({self_s / grand:5.1%})  n={count}"
        )
    return lines


def _progress_findings(curves: dict[str, SiteCurve]) -> list[str]:
    """Frontier growth and throughput decay per checkpoint site."""
    out: list[str] = []
    by_steps = sorted(curves.values(), key=lambda c: -c.steps)
    for curve in by_steps:
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
    for curve in by_steps:
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
    return out


def _work_section(
    aggregates: dict[str, SpanAggregate],
    curves: dict[str, SiteCurve],
    limit: int | None,
) -> list[str]:
    """Per-span-name work table, slowest spans, and search-progress trends."""
    rows = sorted(aggregates.values(), key=lambda a: -a.total_s)[:limit]
    lines: list[str] = []
    if rows:
        width = max(len("span"), *(len(row.name) for row in rows))
        header = (
            f"{'span':<{width}}  {'count':>5}  {'err':>3}  {'total':>9}  "
            f"{'mean':>9}  {'max':>9}  dominant counters"
        )
        lines += [header, "-" * len(header)]
        for row in rows:
            counters = ", ".join(f"{k}={v}" for k, v in row.dominant_counters())
            lines.append(
                f"{row.name:<{width}}  {row.count:>5}  {row.errors:>3}  "
                f"{format_seconds(row.total_s):>9}  "
                f"{format_seconds(row.total_s / row.count):>9}  "
                f"{format_seconds(row.max_s):>9}  {counters or '-'}"
            )
        lines += ["", "slowest spans:"]
        for row in rows:
            slowest = row.slowest or {}
            attrs = sorted((slowest.get("attrs") or {}).items())
            lines.append(
                f"  {row.name:<{width}}  span_id={slowest.get('span_id', '?')}  "
                f"{format_seconds(row.max_s):>9}  "
                + (" ".join(f"{k}={v}" for k, v in attrs) or "-")
            )
    findings = _progress_findings(curves)[:limit]
    if lines and findings:
        lines.append("")
    return lines + findings or ["no span events"]


def _trip_section(
    aggregates: dict[str, SpanAggregate],
    curves: dict[str, SiteCurve],
    limit: int | None,
) -> list[str]:
    """One sentence per (span, limit) trip, with headroom and last progress."""
    lines: list[str] = []
    for agg in aggregates.values():
        for tripped, count in sorted(agg.trips.items()):
            sentence = f"{agg.name!r} hit the {tripped} limit {count}×"
            found = next(
                filter(None, (c.trip(tripped) for c in curves.values())), None
            )
            if found is not None:
                event, headroom = found
                others = ", ".join(
                    f"{k} {v:.0%} left"
                    for k, v in sorted(headroom.items())
                    if k != tripped
                )
                if others:
                    sentence += f" (at the trip: {others})"
                sentence += (
                    f" — last progress at {event.get('site')!r}: "
                    f"{int(event.get('steps', 0))} steps"
                )
                if event.get("frontier") is not None:
                    sentence += f", frontier {event['frontier']}"
            lines.append(sentence)
    return lines[:limit] or ["no budget tripped"]


def render(events: Sequence[dict[str, Any]], limit: int | None = None) -> str:
    """The three-section report over parsed trace events."""
    spans = [event for event in events if event.get("event") == "span"]
    curves: dict[str, SiteCurve] = {}
    for event in events:
        if event.get("event") == "progress":
            site = str(event.get("site", "<unknown>"))
            curves.setdefault(site, SiteCurve(site)).add(event)
    if not spans and not curves:
        return "trace contains no span or progress events\n"
    aggregates = aggregate(spans)
    progress_note = (
        f"{sum(len(c.events) for c in curves.values())} progress event(s) "
        f"across {len(curves)} site(s)"
        if curves
        else "no progress events"
    )
    lines = [f"explain: {len(spans)} span(s), {progress_note}"]
    bodies = (
        _time_section(build_tree(spans), limit),
        _work_section(aggregates, curves, limit),
        _trip_section(aggregates, curves, limit),
    )
    for title, body in zip(SECTIONS, bodies):
        lines += ["", f"== {title} ==", *body]
    return "\n".join(lines) + "\n"


def explain(
    patterns: Sequence[str],
    limit: int | None = None,
    on_skip: Callable[[str], None] | None = None,
) -> str:
    """The report over trace files or globs ``patterns`` (lenient parse)."""
    return render(load_events(patterns, on_skip=on_skip), limit=limit)
