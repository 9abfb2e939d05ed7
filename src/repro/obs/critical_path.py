"""The span tree of a JSONL trace, with self-time attribution.

:func:`build_tree` rebuilds the tree from ``parent_id`` links and gives
each span its *self time* (elapsed minus the elapsed of its direct
children); :func:`dominant_chain` walks from the slowest root into the
slowest child at each hop.  ``python -m repro.obs explain`` prints both
under "where the time went", and the end-to-end benchmark's layer table
splits request time with the same tree.

Merged worker events (re-emitted through :func:`repro.obs.reemit`) keep
their worker-local span ids, so ids can collide across processes; nodes
are therefore keyed by ``(worker_pid, span_id)`` with the parent link
resolved within the same process only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

#: Key type: ("<source file>:<worker pid>" scope, span id) — both scope
#: parts empty for spans the parent process emitted from a single file.
NodeKey = tuple[str, int]


@dataclass
class SpanNode:
    """One span event plus its tree links and self-time attribution."""

    key: NodeKey
    name: str
    elapsed_s: float
    attrs: dict[str, Any]
    parent: NodeKey | None
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def children_s(self) -> float:
        return sum(child.elapsed_s for child in self.children)

    @property
    def self_s(self) -> float:
        """Elapsed not accounted for by direct children (clamped >= 0)."""
        return max(0.0, self.elapsed_s - self.children_s)


def build_tree(events: Iterable[dict[str, Any]]) -> list[SpanNode]:
    """Parse span events into root nodes (children attached, any order)."""
    nodes: dict[NodeKey, SpanNode] = {}
    for event in events:
        if event.get("event") != "span":
            continue
        span_id = event.get("span_id")
        if not isinstance(span_id, int):
            continue
        attrs = dict(event.get("attrs") or {})
        # Span ids are process-local (and restart per trace file): scope
        # the key by merged-worker pid and source file alike.
        process = f"{event.get('_source', '')}:{attrs.get('worker_pid', '')}"
        parent_id = event.get("parent_id")
        nodes[(process, span_id)] = SpanNode(
            key=(process, span_id),
            name=str(event.get("name", "<unnamed>")),
            elapsed_s=float(event.get("elapsed_s", 0.0)),
            attrs=attrs,
            parent=(process, parent_id) if isinstance(parent_id, int) else None,
        )
    roots: list[SpanNode] = []
    for node in nodes.values():
        parent = nodes.get(node.parent) if node.parent is not None else None
        if parent is not None and parent is not node:
            parent.children.append(node)
        else:
            roots.append(node)
    return roots


def dominant_chain(roots: list[SpanNode]) -> list[SpanNode]:
    """From the slowest root, descend into the slowest child at each hop."""
    if not roots:
        return []
    node = max(roots, key=lambda n: n.elapsed_s)
    chain = [node]
    while node.children:
        node = max(node.children, key=lambda n: n.elapsed_s)
        chain.append(node)
    return chain


def self_time_by_name(roots: list[SpanNode]) -> dict[str, tuple[float, int]]:
    """Aggregate ``name -> (total self seconds, span count)`` over the forest."""
    totals: dict[str, tuple[float, int]] = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        total, count = totals.get(node.name, (0.0, 0))
        totals[node.name] = (total + node.self_s, count + 1)
        stack.extend(node.children)
    return totals
