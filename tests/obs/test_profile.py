"""The sampling profiler: sampler, collapsed I/O, spools, flamegraph."""

import os
import threading
import time

import pytest

from repro.obs import profile


@pytest.fixture(autouse=True)
def _profiler_off():
    """Never leak a running sampler or absorbed spools into other tests."""
    yield
    profile.configure(enabled=False)
    profile._sampler = None
    profile._path = None
    profile._sources.clear()


def _busy(stop: threading.Event) -> None:
    x = 0
    while not stop.is_set():
        x += 1


class TestSampler:
    def test_collects_stacks_from_running_threads(self):
        stop = threading.Event()
        thread = threading.Thread(target=_busy, args=(stop,), daemon=True)
        thread.start()
        sampler = profile.Sampler(hz=400).start()
        time.sleep(0.25)
        sampler.stop()
        stop.set()
        thread.join()
        samples = sampler.snapshot()
        assert samples
        assert sampler.sample_count() == sum(samples.values())
        flat = [name for stack in samples for name in stack]
        assert any("_busy" in name for name in flat)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            profile.Sampler(hz=0)

    def test_profiling_context_writes_collapsed(self, tmp_path):
        out = tmp_path / "run.collapsed"
        stop = threading.Event()
        thread = threading.Thread(target=_busy, args=(stop,), daemon=True)
        thread.start()
        with profile.profiling(str(out), hz=400):
            time.sleep(0.2)
        stop.set()
        thread.join()
        samples = profile.parse_collapsed(out.read_text(), str(out))
        assert sum(samples.values()) >= 1


class TestCollapsedIO:
    def test_round_trip(self):
        samples = {("a", "b", "c"): 5, ("a", "d"): 2}
        text = profile.render_collapsed(samples)
        assert "a;b;c 5" in text
        assert profile.parse_collapsed(text) == samples

    def test_parse_rejects_countless_line(self):
        with pytest.raises(ValueError, match="bad.collapsed:2"):
            profile.parse_collapsed("a;b 3\nnope\n", "bad.collapsed")

    def test_merge_samples_adds(self):
        merged = profile.merge_samples([{("a",): 1}, {("a",): 2, ("b",): 3}])
        assert merged == {("a",): 3, ("b",): 3}


def _fork_in_place(spool_path):
    """``reset_after_fork`` without a fork: stop the parent's sampler too.

    A forked child never has the parent's sampler thread; left running
    here it would sample every later test, and ``sys._current_frames``
    from a background thread can deadlock CPython 3.11 when a garbage
    collection finalizes objects at the same time.
    """
    parent = profile._sampler
    profile.reset_after_fork(spool_path)
    parent.stop()


class TestModuleState:
    def test_disabled_by_default(self):
        assert not profile.is_enabled()
        assert profile.write_collapsed() is None

    def test_configure_and_write(self, tmp_path):
        out = tmp_path / "proc.collapsed"
        profile.configure(path=str(out), hz=500)
        assert profile.is_enabled()
        deadline = time.monotonic() + 5.0
        while profile.sample_count() == 0 and time.monotonic() < deadline:
            sum(i * i for i in range(50_000))
        profile.configure(enabled=False)
        assert not profile.is_enabled()
        assert profile.write_collapsed() == str(out)
        assert profile.parse_collapsed(out.read_text())

    def test_absorb_spool_is_replace_wise(self, tmp_path):
        spool = tmp_path / "profile-123.collapsed"
        spool.write_text("a;b 4\n")
        assert profile.absorb_spool(str(spool), source="123") == 4
        # Cumulative rewrite: absorbing again must not double-count.
        spool.write_text("a;b 6\n")
        assert profile.absorb_spool(str(spool), source="123") == 6
        assert profile.merged_samples() == {("a", "b"): 6}

    def test_absorb_skips_unreadable_or_partial(self, tmp_path):
        assert profile.absorb_spool(str(tmp_path / "missing"), "1") == 0
        partial = tmp_path / "partial.collapsed"
        partial.write_text("a;b 4\nc;d")  # mid-write truncation
        assert profile.absorb_spool(str(partial), "2") == 0
        assert profile.merged_samples() == {}

    def test_reset_after_fork_disables_without_spool(self, tmp_path):
        profile.configure(path=str(tmp_path / "p.collapsed"), hz=300)
        _fork_in_place(None)
        assert not profile.is_enabled()
        assert profile.write_collapsed() is None

    def test_reset_after_fork_rehomes_to_spool(self, tmp_path):
        profile.configure(path=str(tmp_path / "parent.collapsed"), hz=300)
        spool = tmp_path / "profile-9.collapsed"
        _fork_in_place(str(spool))
        assert profile.is_enabled()
        assert profile._sampler.hz == 300
        assert profile.write_collapsed() == str(spool)


class TestFlamegraph:
    def test_html_is_self_contained(self):
        samples = {("main", "solve", "search"): 10, ("main", "io"): 2}
        html = profile.flamegraph_html(samples, title="t <1>")
        assert html.startswith("<!doctype html>")
        assert "t &lt;1&gt;" in html
        assert "12 samples" in html
        assert html.count('class="frame"') == 5  # root + 4 frames
        assert "http" not in html  # no external assets
        assert "data-total=\"12\"" in html

    def test_empty_samples_render_without_raising(self):
        html = profile.flamegraph_html({})
        assert html.startswith("<!doctype html>")
