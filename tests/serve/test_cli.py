"""``python -m repro.serve`` end to end (in-process via main())."""

from __future__ import annotations

import base64
import json
import pickle

import pytest

from repro import metrics
from repro.serve.__main__ import main
from repro.workloads.scaling import pl_counter_sws


def write_jobs(path, lines):
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))


@pytest.fixture
def jobs_file(tmp_path):
    path = tmp_path / "jobs.jsonl"
    write_jobs(
        path,
        [
            {
                "procedure": "nonempty_pl",
                "instances": [
                    {
                        "factory": "repro.workloads.scaling:pl_counter_sws",
                        "args": [6],
                    }
                ],
                "label": "counter-6",
            },
            {
                "procedure": "nonempty_pl",
                "instances": [
                    {
                        "factory": "repro.workloads.scaling:pl_counter_sws",
                        "args": [6],
                    }
                ],
                "budget": {"deadline_s": 30.0},
                "label": "counter-6-dup",
            },
        ],
    )
    return path


def test_run_writes_results_in_order(tmp_path, jobs_file):
    out = tmp_path / "results.jsonl"
    assert main(["run", str(jobs_file), "--out", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    *results, summary = records
    assert [r["label"] for r in results] == ["counter-6", "counter-6-dup"]
    assert all(r["verdict"] == "yes" for r in results)
    assert results[0]["fingerprint"] == results[1]["fingerprint"]
    assert results[1]["deduped"] is True
    assert summary["_summary"]["jobs_executed"] == 1


def test_repeat_reuses_delta_sessions(tmp_path, capsys):
    """--repeat routes PL jobs through one Session per fingerprint; the
    `"@round"` placeholder builds an edited instance each round, so the
    edited spec re-checks incrementally instead of resubmitting."""
    path = tmp_path / "jobs.jsonl"
    write_jobs(
        path,
        [
            {
                "procedure": "nonempty_pl",
                "instances": [
                    {
                        "factory": "repro.workloads.editing:edited_menu",
                        "kwargs": {"step": "@round", "edits": 4},
                    }
                ],
                "label": "edited-menu",
            },
            {
                "procedure": "nonempty_pl",
                "instances": [
                    {
                        "factory": "repro.workloads.scaling:pl_counter_sws",
                        "args": [5],
                    }
                ],
                "label": "counter-5",
            },
        ],
    )
    out = tmp_path / "results.jsonl"
    assert main(["run", str(path), "--repeat", "3", "--out", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    *results, summary = records
    assert summary["delta"]["sessions"] == 2
    assert summary["delta"]["rechecks"] == 4  # 2 jobs x 2 later rounds
    menu = [r for r in results if r["label"] == "edited-menu"]
    assert menu[0]["delta_mode"] == "solve"
    assert all(r["delta_mode"] in ("replay", "warm") for r in menu[1:])
    counter = [r for r in results if r["label"] == "counter-5"]
    # The unchanged spec re-checks as an empty delta every round.
    assert [r["delta_mode"] for r in counter[1:]] == ["cached", "cached"]
    assert all(r["verdict"] == "yes" for r in results)
    assert "delta: 2 session(s)" in capsys.readouterr().err


def test_repeat_solves_round_zero_on_the_workers(tmp_path):
    """--repeat sends round 0 to the pool; the sessions of later rounds
    start from the answers the service cached."""
    path = tmp_path / "jobs.jsonl"
    write_jobs(
        path,
        [
            {
                "procedure": "nonempty_pl",
                "instances": [
                    {"factory": "repro.workloads.scaling:pl_counter_sws", "args": [bits]}
                ],
            }
            for bits in (4, 5)
        ],
    )
    out = tmp_path / "results.jsonl"
    trace = tmp_path / "trace.jsonl"
    argv = ["run", str(path), "--workers", "2", "--repeat", "2", "--out", str(out)]
    assert main(argv + ["--trace", str(trace)]) == 0
    counters = metrics.last_snapshot(str(trace))["counters"]
    assert metrics.counter_total(counters, "serve.jobs.executed") == 2
    *results, summary = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["delta_mode"] for r in results] == ["solve", "solve", "cached", "cached"]
    assert summary["delta"]["rechecks"] == 2


def test_one_trace_serves_top_and_explain(tmp_path, jobs_file, capsys):
    """``run --trace`` writes one file that both readers take."""
    from repro.obs.explain import SECTIONS
    from repro.obs.report import main as obs_main

    trace = tmp_path / "trace.jsonl"
    argv = ["run", str(jobs_file), "--workers", "2", "--out", str(tmp_path / "r")]
    assert main(argv + ["--trace", str(trace)]) == 0
    capsys.readouterr()
    assert main(["top", str(trace), "--once"]) == 0
    assert "repro.serve top" in capsys.readouterr().out
    assert obs_main(["explain", str(trace)]) == 0
    report = capsys.readouterr().out
    for header in SECTIONS:
        assert f"== {header} ==" in report


def test_run_with_cache_dir_hits_on_second_run(tmp_path, jobs_file):
    out = tmp_path / "results.jsonl"
    cache_dir = str(tmp_path / "cache")
    assert main(["run", str(jobs_file), "--out", str(out), "--cache-dir", cache_dir]) == 0
    assert main(["run", str(jobs_file), "--out", str(out), "--cache-dir", cache_dir]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    *results, summary = records
    assert all(r["from_cache"] for r in results[:1])  # first job hits disk cache
    assert summary["_summary"]["jobs_executed"] == 0
    assert summary["_summary"]["cache"]["hits"] >= 1


def test_pickled_instance_spec(tmp_path):
    payload = base64.b64encode(pickle.dumps(pl_counter_sws(5))).decode("ascii")
    path = tmp_path / "jobs.jsonl"
    write_jobs(
        path,
        [{"procedure": "nonempty_pl", "instances": [{"pickle": payload}]}],
    )
    out = tmp_path / "results.jsonl"
    assert main(["run", str(path), "--out", str(out)]) == 0
    first = json.loads(out.read_text().splitlines()[0])
    assert first["verdict"] == "yes"


def test_fingerprint_command(capsys, jobs_file):
    assert main(["fingerprint", str(jobs_file)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    # Same instance => same fingerprint, regardless of label/budget.
    assert lines[0].split()[0] == lines[1].split()[0]


def test_procedures_command(capsys):
    assert main(["procedures"]) == 0
    names = capsys.readouterr().out.split()
    assert "nonempty_pl" in names and "compose_mdtb_pl" in names


def test_store_stats_vacuum_import_commands(tmp_path, jobs_file, capsys):
    cache_dir = str(tmp_path / "cache")
    out = tmp_path / "results.jsonl"
    assert main(["run", str(jobs_file), "--out", str(out), "--cache-dir", cache_dir]) == 0

    assert main(["store", "stats", cache_dir]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["answers"] == 1
    assert stats["journal_mode"] == "wal"

    assert main(["store", "vacuum", cache_dir]) == 0
    assert main(["store", "stats", cache_dir]) == 0
    assert json.loads(capsys.readouterr().out)["answers"] == 1


def test_store_stats_missing_store_errors(tmp_path):
    with pytest.raises(SystemExit):
        main(["store", "stats", str(tmp_path / "nowhere")])


def test_disallowed_factory_module(tmp_path):
    path = tmp_path / "jobs.jsonl"
    write_jobs(
        path,
        [
            {
                "procedure": "nonempty_pl",
                "instances": [{"factory": "os:getcwd"}],
            }
        ],
    )
    with pytest.raises(SystemExit):
        main(["run", str(path)])


def test_bad_json_line(tmp_path):
    path = tmp_path / "jobs.jsonl"
    path.write_text('{"procedure": "nonempty_pl"\n')
    with pytest.raises(SystemExit):
        main(["fingerprint", str(path)])


def test_comments_and_blanks_skipped(tmp_path, capsys):
    path = tmp_path / "jobs.jsonl"
    path.write_text(
        "# a comment\n\n"
        + json.dumps(
            {
                "procedure": "nonempty_pl",
                "instances": [
                    {"factory": "repro.workloads.scaling:pl_counter_sws", "args": [4]}
                ],
            }
        )
        + "\n"
    )
    assert main(["fingerprint", str(path)]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 1


# -- resilience flags and the dlq subcommand ---------------------------------------


def _starved_jobs_file(tmp_path, step_budget, label="counter-12"):
    """One job that needs >1024 steps under a too-small step budget."""
    path = tmp_path / "starved.jsonl"
    write_jobs(
        path,
        [
            {
                "procedure": "nonempty_pl",
                "instances": [
                    {
                        "factory": "repro.workloads.scaling:pl_counter_sws",
                        "args": [12],
                    }
                ],
                "budget": {"step_budget": step_budget},
                "label": label,
            }
        ],
    )
    return path


def test_run_prints_outcomes_and_strict_fails_unknown(tmp_path, capsys):
    jobs = _starved_jobs_file(tmp_path, step_budget=256)
    out = tmp_path / "results.jsonl"
    # A tripped job is a sound UNKNOWN: exit 0 without --strict...
    assert main(["run", str(jobs), "--out", str(out)]) == 0
    stderr = capsys.readouterr().err
    assert "outcomes: 0 decided, 1 unknown, 0 rejected, 0 dead_lettered" in stderr
    # ...and exit 1 with it.
    assert main(["run", str(jobs), "--out", str(out), "--strict"]) == 1
    assert "FAIL (--strict): 1 unknown" in capsys.readouterr().err


def test_run_retries_convert_unknown_to_decided(tmp_path, capsys):
    jobs = _starved_jobs_file(tmp_path, step_budget=256)
    out = tmp_path / "results.jsonl"
    code = main(
        ["run", str(jobs), "--out", str(out), "--strict", "--retries", "3",
         "--budget-multiplier", "4"]
    )
    assert code == 0
    record = json.loads(out.read_text().splitlines()[0])
    assert record["outcome"] == "decided"
    assert record["verdict"] == "yes"
    assert record["attempts"] == 3  # 256 -> 1024 -> 4096 steps
    stderr = capsys.readouterr().err
    assert "outcomes: 1 decided" in stderr
    assert "2 retried" in stderr


def test_run_admission_rejects_and_strict_fails(tmp_path, capsys):
    path = tmp_path / "two.jsonl"
    write_jobs(
        path,
        [
            {
                "procedure": "nonempty_pl",
                "instances": [
                    {
                        "factory": "repro.workloads.scaling:pl_counter_sws",
                        "args": [bits],
                    }
                ],
                "label": f"counter-{bits}",
            }
            for bits in (4, 5)
        ],
    )
    out = tmp_path / "results.jsonl"
    assert main(["run", str(path), "--out", str(out), "--max-queue-depth", "1"]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()[:-1]]
    assert [r["outcome"] for r in records] == ["decided", "rejected"]
    assert "1 rejected" in capsys.readouterr().err
    assert (
        main(
            ["run", str(path), "--out", str(out), "--max-queue-depth", "1",
             "--strict"]
        )
        == 1
    )


def test_dead_letter_run_then_dlq_list_retry_purge(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    # 4 -> 8 steps after one escalation: still starved => dead-lettered.
    jobs = _starved_jobs_file(tmp_path, step_budget=4)
    out = tmp_path / "results.jsonl"
    code = main(
        ["run", str(jobs), "--out", str(out), "--cache-dir", cache_dir,
         "--retries", "2", "--budget-multiplier", "2"]
    )
    assert code == 1
    stderr = capsys.readouterr().err
    assert "1 dead_lettered" in stderr and "FAIL: 1 job(s) dead-lettered" in stderr
    record = json.loads(out.read_text().splitlines()[0])
    assert record["outcome"] == "dead_lettered"

    # list: one record, both human and JSON forms.
    assert main(["dlq", "list", cache_dir]) == 0
    human = capsys.readouterr().out
    assert "nonempty_pl" in human and "counter-12" in human
    assert main(["dlq", "list", cache_dir, "--json"]) == 0
    dlq_record = json.loads(capsys.readouterr().out)
    assert dlq_record["attempts"] == 2
    assert dlq_record["last_budget"] == {"step_budget": 8}
    assert dlq_record["has_payload"] is True

    # retry with more escalation room: 8 -> 256 -> 8192 steps decides.
    code = main(
        ["dlq", "retry", cache_dir, "--retries", "3", "--budget-multiplier", "32"]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "recovered" in captured.out
    assert "1 recovered, 0 still dead" in captured.err
    assert main(["dlq", "list", cache_dir]) == 0
    assert "dlq: empty" in capsys.readouterr().err

    # purge on an empty queue is a clean no-op.
    assert main(["dlq", "purge", cache_dir]) == 0
    assert "purged 0" in capsys.readouterr().err


def test_dlq_retry_without_escalation_stays_dead(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    jobs = _starved_jobs_file(tmp_path, step_budget=4)
    assert main(
        ["run", str(jobs), "--out", str(tmp_path / "r.jsonl"), "--cache-dir",
         cache_dir, "--retries", "2", "--budget-multiplier", "2"]
    ) == 1
    capsys.readouterr()
    # Re-running at the recorded (still-starved) budget cannot recover.
    assert main(["dlq", "retry", cache_dir]) == 1
    captured = capsys.readouterr()
    assert "0 recovered, 1 still dead" in captured.err
    assert main(["dlq", "list", cache_dir, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["attempts"] == 2
