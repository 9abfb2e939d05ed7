"""Critical-path tree building, self-time attribution, and the
"where the time went" section of `obs explain`."""

import json

import pytest

from repro.obs.critical_path import build_tree, dominant_chain, self_time_by_name
from repro.obs.explain import explain, render


def _span(name, elapsed, span_id, parent_id=None, worker_pid=None):
    event = {
        "event": "span",
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "elapsed_s": elapsed,
        "status": "ok",
    }
    if worker_pid is not None:
        event["attrs"] = {"worker_pid": worker_pid}
    return event


def _tree_events():
    # root(1.0) -> fast(0.2), slow(0.7) -> leaf(0.3)
    return [
        _span("root", 1.0, span_id=1),
        _span("fast", 0.2, span_id=2, parent_id=1),
        _span("slow", 0.7, span_id=3, parent_id=1),
        _span("leaf", 0.3, span_id=4, parent_id=3),
    ]


class TestBuildTree:
    def test_children_attach_to_parents(self):
        roots = build_tree(_tree_events())
        assert len(roots) == 1
        root = roots[0]
        assert {c.name for c in root.children} == {"fast", "slow"}

    def test_self_time_subtracts_direct_children(self):
        roots = build_tree(_tree_events())
        root = roots[0]
        assert root.self_s == pytest.approx(0.1)  # 1.0 - (0.2 + 0.7)
        slow = next(c for c in root.children if c.name == "slow")
        assert slow.self_s == pytest.approx(0.4)

    def test_self_time_clamped_nonnegative(self):
        roots = build_tree(
            [
                _span("root", 0.1, span_id=1),
                _span("child", 0.5, span_id=2, parent_id=1),  # timer skew
            ]
        )
        assert roots[0].self_s == 0.0

    def test_same_span_ids_in_different_workers_do_not_collide(self):
        events = [
            _span("a", 1.0, span_id=1, worker_pid=100),
            _span("b", 2.0, span_id=1, worker_pid=200),
        ]
        roots = build_tree(events)
        assert {r.name for r in roots} == {"a", "b"}

    def test_orphan_parent_id_becomes_a_root(self):
        roots = build_tree([_span("lone", 1.0, span_id=5, parent_id=99)])
        assert [r.name for r in roots] == ["lone"]


class TestDominantChain:
    def test_follows_slowest_child(self):
        chain = dominant_chain(build_tree(_tree_events()))
        assert [n.name for n in chain] == ["root", "slow", "leaf"]

    def test_empty(self):
        assert dominant_chain([]) == []


class TestSelfTime:
    def test_aggregates_by_name(self):
        totals = self_time_by_name(build_tree(_tree_events()))
        assert totals["root"][0] == pytest.approx(0.1)
        assert totals["slow"][0] == pytest.approx(0.4)
        assert totals["leaf"] == (pytest.approx(0.3), 1)


class TestRender:
    def test_report_sections(self):
        text = render(_tree_events())
        assert "dominant chain" in text
        assert "root" in text and "slow" in text and "leaf" in text
        assert "self time by span name" in text
        chain = text.split("dominant chain")[1].split("self time")[0]
        assert chain.index("root") < chain.index("slow") < chain.index("leaf")
        assert "fast" not in chain  # off the dominant chain

    def test_empty_trace(self):
        assert "no span" in render([])


class TestCriticalPathFiles:
    def test_multiple_files_keep_span_ids_apart(self, tmp_path):
        for index, name in enumerate(("first", "second")):
            path = tmp_path / f"{name}.jsonl"
            with open(path, "w") as handle:
                handle.write(
                    json.dumps(_span(name, 1.0 + index, span_id=1)) + "\n"
                )
        text = explain(
            [str(tmp_path / "first.jsonl"), str(tmp_path / "second.jsonl")]
        )
        # Identical span_id=1 in both files: both must survive as roots,
        # with the slower one dominating.
        assert "dominant chain (root 'second'" in text
        assert "n=1" in text

    def test_cli_subcommand(self, tmp_path, capsys):
        from repro.obs.report import main

        path = tmp_path / "trace.jsonl"
        with open(path, "w") as handle:
            for event in _tree_events():
                handle.write(json.dumps(event) + "\n")
        assert main(["explain", str(path)]) == 0
        out = capsys.readouterr().out
        assert "dominant chain" in out
