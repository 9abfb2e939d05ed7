"""Instrument semantics: counters, gauges, histograms, keys, no-op mode."""

import threading

import pytest

from repro import metrics
from repro.metrics import (
    BUCKETS,
    Counter,
    Gauge,
    Histogram,
    NOOP_INSTRUMENT,
    Registry,
    bucket_bounds,
    bucket_index,
    decode_key,
    encode_key,
)


class TestKeys:
    def test_unlabeled_key_is_the_name(self):
        assert encode_key("serve.jobs.executed", {}) == "serve.jobs.executed"

    def test_labels_sort_into_the_key(self):
        key = encode_key("lat", {"tier": "disk", "procedure": "pl"})
        assert key == "lat{procedure=pl,tier=disk}"

    def test_decode_inverts_encode(self):
        key = encode_key("lat", {"procedure": "pl", "tier": "disk"})
        assert decode_key(key) == ("lat", {"procedure": "pl", "tier": "disk"})

    def test_decode_plain_name(self):
        assert decode_key("serve.jobs.executed") == ("serve.jobs.executed", {})


class TestCounter:
    def test_monotonic(self):
        c = Counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_dump_is_int_when_whole(self):
        c = Counter("c")
        c.inc(3)
        assert c.dump() == 3
        assert isinstance(c.dump(), int)

    def test_thread_safety(self):
        c = Counter("c")

        def spin():
            for _ in range(10_000):
                c.inc()

        threads = [threading.Thread(target=spin) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 40_000


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("g")
        g.set(5)
        g.inc(2)
        g.dec()
        assert g.value == 6.0


class TestBuckets:
    def test_underflow_goes_to_bucket_zero(self):
        assert bucket_index(0.0) == 0
        assert bucket_index(1e-9) == 0

    def test_indices_monotone_in_value(self):
        values = [1e-6, 1e-5, 1e-3, 0.1, 1.0, 60.0]
        indices = [bucket_index(v) for v in values]
        assert indices == sorted(indices)

    def test_huge_values_clamp_to_last_bucket(self):
        assert bucket_index(1e30) == BUCKETS

    def test_bounds_contain_their_values(self):
        for value in (1e-6, 3e-4, 0.02, 1.5, 900.0):
            lo, hi = bucket_bounds(bucket_index(value))
            assert lo <= value < hi


class TestHistogram:
    def test_readout_counts_and_sum(self):
        h = Histogram("h")
        for v in (0.001, 0.002, 0.004):
            h.observe(v)
        readout = h.readout()
        assert readout["count"] == 3
        assert readout["sum"] == pytest.approx(0.007)
        assert readout["min"] == 0.001
        assert readout["max"] == 0.004

    def test_empty_readout(self):
        readout = Histogram("h").readout()
        assert readout["count"] == 0
        assert readout["p99"] is None
        assert readout["mean"] is None

    def test_quantiles_clamped_to_observed_range(self):
        h = Histogram("h")
        for v in (0.010, 0.011, 0.012, 0.013):
            h.observe(v)
        for q in (0.5, 0.9, 0.99):
            assert 0.010 <= h.quantile(q) <= 0.013
        assert h.quantile(1.0) == 0.013

    def test_p99_bounded_relative_error(self):
        # 100 samples at 1ms, one at 1s: p99 must land near the body,
        # p-1.0 at the exact tail.
        h = Histogram("h")
        for _ in range(100):
            h.observe(0.001)
        h.observe(1.0)
        assert h.quantile(0.50) <= 0.002
        assert h.quantile(1.0) == 1.0

    def test_dump_sparse_buckets(self):
        h = Histogram("h")
        h.observe(0.004)
        dump = h.dump()
        assert dump["count"] == 1
        assert sum(dump["buckets"].values()) == 1
        assert all(isinstance(k, str) for k in dump["buckets"])


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        r = Registry()
        assert r.counter("c") is r.counter("c")
        assert r.counter("c", a=1) is not r.counter("c")

    def test_kind_conflict_raises(self):
        r = Registry()
        r.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            r.gauge("x")

    def test_reset_empties(self):
        r = Registry()
        r.counter("c").inc()
        r.reset()
        assert r.instruments() == {}


class TestNoopMode:
    def test_disabled_accessors_return_shared_noop(self):
        assert not metrics.is_enabled()
        assert metrics.counter("c") is NOOP_INSTRUMENT
        assert metrics.gauge("g") is NOOP_INSTRUMENT
        assert metrics.histogram("h") is NOOP_INSTRUMENT

    def test_noop_absorbs_every_operation(self):
        noop = metrics.counter("c")
        noop.inc()
        noop.dec()
        noop.set(3)
        noop.observe(0.5)
        assert noop.quantile(0.99) is None
        assert metrics.REGISTRY.instruments() == {}

    def test_observe_shorthand_noop_when_disabled(self):
        metrics.observe("h", 0.25)
        assert metrics.REGISTRY.instruments() == {}

    def test_enabling_records_for_real(self):
        metrics.configure(enabled=True)
        metrics.counter("c").inc()
        metrics.observe("h", 0.25, procedure="pl")
        instruments = metrics.REGISTRY.instruments()
        assert instruments["c"].value == 1
        assert instruments["h{procedure=pl}"].count == 1


class TestDerivedStats:
    def test_counter_total_rolls_up_labels(self):
        counters = {
            "serve.cache.hits{tier=memory}": 3,
            "serve.cache.hits{tier=disk}": 1,
            "serve.cache.misses": 4,
        }
        assert metrics.counter_total(counters, "serve.cache.hits") == 4
        assert metrics.cache_hit_rate(counters) == 0.5

    def test_cache_hit_rate_none_without_traffic(self):
        assert metrics.cache_hit_rate({}) is None
