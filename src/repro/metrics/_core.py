"""The instruments and registry behind :mod:`repro.metrics`.

Design constraints, mirroring :mod:`repro.obs._tracer`:

1. **Zero overhead when disabled.**  Every instrumented site goes
   through :func:`counter` / :func:`gauge` / :func:`histogram`; with
   metrics off those return a shared no-op instrument after one global
   flag check, so the serving layer (and the guard's trip path) cost
   nothing measurable in the default configuration.

2. **Percentiles, not averages.**  Solve times across instance families
   are heavy-tailed (EXPTIME/PSPACE lower bounds guarantee it), so the
   :class:`Histogram` is a fixed log-bucket streaming sketch: constant
   memory, O(1) observe, p50/p90/p99/max readouts with bounded relative
   error (one bucket's growth factor).

3. **Cross-process mergeable.**  Worker processes record into their own
   registry and append *cumulative* snapshots to their spool (see
   :mod:`repro.serve.pool`); the parent folds them in with
   :meth:`Registry.merge_snapshot`, which applies only the delta since
   the last merge per source — merging is idempotent and counters are
   never double-counted however often the spool is polled.

4. **No sink of its own.**  :func:`write_snapshot` writes into the
   :mod:`repro.obs` sink, beside spans and progress events; this module
   opens no file and starts no thread.

This module is import-light on purpose (stdlib only at import), so the
guard, the tracer and the lowest serving layers can record without
import cycles.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from typing import Any, Mapping

#: Snapshot format version, stamped into every exported snapshot.
METRICS_SCHEMA_VERSION = 1

#: Hot-path flag.  Read directly by the instrument accessors; mutate
#: only through :func:`configure`.
ENABLED = False

# -- histogram bucket layout ---------------------------------------------------
#
# Bucket 0 holds values below _BUCKET_BASE; bucket i (1..BUCKETS) holds
# [_BUCKET_BASE * 2**(i-1), _BUCKET_BASE * 2**i).  1µs .. ~9 years of
# seconds-valued observations land in-range; anything above clamps into
# the last bucket (max is tracked exactly regardless).
_BUCKET_BASE = 1e-6
BUCKETS = 48


def bucket_index(value: float) -> int:
    """The log-bucket index for ``value`` (clamped to the fixed range)."""
    if value < _BUCKET_BASE:
        return 0
    index = int(math.log2(value / _BUCKET_BASE)) + 1
    return index if index < BUCKETS else BUCKETS


def bucket_bounds(index: int) -> tuple[float, float]:
    """The ``[lo, hi)`` value range of bucket ``index``."""
    if index <= 0:
        return (0.0, _BUCKET_BASE)
    return (_BUCKET_BASE * 2.0 ** (index - 1), _BUCKET_BASE * 2.0**index)


def encode_key(name: str, labels: Mapping[str, Any]) -> str:
    """``name{k=v,...}`` with sorted labels; just ``name`` when unlabeled."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def decode_key(key: str) -> tuple[str, dict[str, str]]:
    """Invert :func:`encode_key` (label values come back as strings)."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key.partition("{")
    labels: dict[str, str] = {}
    for part in inner[:-1].split(","):
        if part:
            k, _, v = part.partition("=")
            labels[k] = v
    return name, labels


class Counter:
    """A monotonically increasing count (float-friendly for second sums)."""

    kind = "counter"
    __slots__ = ("key", "_lock", "_value")

    def __init__(self, key: str) -> None:
        self.key = key
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def dump(self) -> float:
        value = self._value
        return int(value) if value == int(value) else value


class Gauge:
    """A sampled instantaneous value (queue depth, in-flight jobs)."""

    kind = "gauge"
    __slots__ = ("key", "_lock", "_value")

    def __init__(self, key: str) -> None:
        self.key = key
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def dump(self) -> float:
        return self._value


class Histogram:
    """Fixed log-bucket streaming histogram with quantile readouts.

    O(1) observe into one of :data:`BUCKETS` + 1 power-of-two buckets;
    quantiles interpolate linearly within the landing bucket, clamped to
    the exact observed min/max, so the relative error is bounded by one
    bucket's growth factor (2×) and the tails (p99, max) — the signal
    for heavy-tailed solve times — are never under-reported past that.
    """

    kind = "histogram"
    __slots__ = ("key", "_lock", "_buckets", "count", "sum", "min", "max")

    def __init__(self, key: str) -> None:
        self.key = key
        self._lock = threading.Lock()
        self._buckets = [0] * (BUCKETS + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._buckets[bucket_index(value)] += 1
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    def quantile(self, q: float) -> float | None:
        """The approximate ``q``-quantile (0 <= q <= 1), or None if empty."""
        with self._lock:
            if not self.count:
                return None
            if q >= 1.0:
                return self.max
            rank = q * self.count
            cumulative = 0.0
            for index, bucket_count in enumerate(self._buckets):
                if not bucket_count:
                    continue
                if cumulative + bucket_count >= rank:
                    lo, hi = bucket_bounds(index)
                    fraction = (rank - cumulative) / bucket_count
                    estimate = lo + (hi - lo) * max(0.0, min(1.0, fraction))
                    return max(self.min, min(self.max, estimate))
                cumulative += bucket_count
            return self.max

    def readout(self) -> dict[str, float | int | None]:
        """count/sum/mean plus the tail summary (p50/p90/p99/min/max)."""
        count = self.count
        return {
            "count": count,
            "sum": self.sum,
            "mean": self.sum / count if count else None,
            "min": self.min if count else None,
            "max": self.max if count else None,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }

    def dump(self) -> dict[str, Any]:
        with self._lock:
            buckets = {
                str(i): n for i, n in enumerate(self._buckets) if n
            }
            return {
                "count": self.count,
                "sum": self.sum,
                "min": self.min if self.count else None,
                "max": self.max if self.count else None,
                "buckets": buckets,
            }

    def merge_dump_delta(
        self,
        bucket_deltas: Mapping[str, int],
        count_delta: int,
        sum_delta: float,
        observed_min: float | None,
        observed_max: float | None,
    ) -> None:
        """Fold another histogram's *delta* (same bucket layout) in."""
        with self._lock:
            for index, delta in bucket_deltas.items():
                i = int(index)
                if 0 <= i <= BUCKETS:
                    self._buckets[i] += delta
            self.count += count_delta
            self.sum += sum_delta
            if observed_min is not None and observed_min < self.min:
                self.min = observed_min
            if observed_max is not None and observed_max > self.max:
                self.max = observed_max


class _NoopInstrument:
    """The shared do-nothing instrument returned while metrics are off."""

    __slots__ = ()
    kind = "noop"
    count = 0
    sum = 0.0
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        return None

    def dec(self, amount: float = 1.0) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None

    def quantile(self, q: float) -> None:
        return None

    def readout(self) -> dict[str, Any]:
        return {}


NOOP_INSTRUMENT = _NoopInstrument()

_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class Registry:
    """Process-wide instrument table with snapshot export and merging."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        # source -> instrument key -> last merged cumulative dump, so a
        # re-polled worker spool only contributes its delta.
        self._merge_state: dict[str, dict[str, Any]] = {}
        self._seq = 0

    def _get(self, kind: str, name: str, labels: Mapping[str, Any]):
        key = encode_key(name, labels)
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = _KINDS[kind](key)
                self._instruments[key] = instrument
            elif instrument.kind != kind:
                raise ValueError(
                    f"instrument {key!r} already registered as "
                    f"{instrument.kind}, not {kind}"
                )
            return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get("gauge", name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get("histogram", name, labels)

    def instruments(self) -> dict[str, Counter | Gauge | Histogram]:
        with self._lock:
            return dict(self._instruments)

    def reset(self) -> None:
        """Drop every instrument and all merge bookkeeping (tests, forks)."""
        with self._lock:
            self._instruments.clear()
            self._merge_state.clear()
            self._seq = 0

    # -- snapshots ---------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """One JSON-ready cumulative snapshot of every instrument."""
        counters: dict[str, Any] = {}
        gauges: dict[str, Any] = {}
        histograms: dict[str, Any] = {}
        for key, instrument in self.instruments().items():
            if instrument.kind == "counter":
                counters[key] = instrument.dump()
            elif instrument.kind == "gauge":
                gauges[key] = instrument.dump()
            else:
                histograms[key] = instrument.dump()
        with self._lock:
            self._seq += 1
            seq = self._seq
        return {
            "event": "metrics",
            "v": METRICS_SCHEMA_VERSION,
            "seq": seq,
            "pid": os.getpid(),
            "t_wall": round(time.time(), 6),
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def merge_snapshot(self, snap: Mapping[str, Any], source: str) -> None:
        """Fold a *cumulative* snapshot from ``source`` into this registry.

        Counters and histograms contribute only the delta beyond what
        this source already merged — polling the same spool file twice
        (or merging an unchanged snapshot) adds nothing.  Gauges are
        instantaneous, so each is re-set under an extra ``worker=source``
        label, keeping per-worker readings distinguishable.
        """
        with self._lock:
            state = self._merge_state.setdefault(source, {})
        for key, value in (snap.get("counters") or {}).items():
            last = state.get(key, 0.0)
            delta = value - last
            if delta < 0:  # restarted source: its whole count is new
                delta = value
            state[key] = value
            if delta > 0:
                name, labels = decode_key(key)
                self.counter(name, **labels).inc(delta)
        for key, dump in (snap.get("histograms") or {}).items():
            last = state.get(key) or {"count": 0, "sum": 0.0, "buckets": {}}
            if dump["count"] < last["count"]:  # restarted source
                last = {"count": 0, "sum": 0.0, "buckets": {}}
            bucket_deltas = {
                index: count - last["buckets"].get(index, 0)
                for index, count in (dump.get("buckets") or {}).items()
            }
            count_delta = dump["count"] - last["count"]
            sum_delta = dump["sum"] - last["sum"]
            state[key] = dump
            if count_delta > 0:
                name, labels = decode_key(key)
                self.histogram(name, **labels).merge_dump_delta(
                    bucket_deltas,
                    count_delta,
                    sum_delta,
                    dump.get("min"),
                    dump.get("max"),
                )
        for key, value in (snap.get("gauges") or {}).items():
            name, labels = decode_key(key)
            self.gauge(name, worker=source, **labels).set(value)


#: The process-wide registry every accessor records into.
REGISTRY = Registry()


def counter(name: str, **labels: Any) -> Counter | _NoopInstrument:
    """The named counter — or the shared no-op while metrics are off."""
    if not ENABLED:
        return NOOP_INSTRUMENT
    return REGISTRY.counter(name, **labels)


def gauge(name: str, **labels: Any) -> Gauge | _NoopInstrument:
    """The named gauge — or the shared no-op while metrics are off."""
    if not ENABLED:
        return NOOP_INSTRUMENT
    return REGISTRY.gauge(name, **labels)


def histogram(name: str, **labels: Any) -> Histogram | _NoopInstrument:
    """The named histogram — or the shared no-op while metrics are off."""
    if not ENABLED:
        return NOOP_INSTRUMENT
    return REGISTRY.histogram(name, **labels)


def observe(name: str, value: float, **labels: Any) -> None:
    """Shorthand: ``histogram(name, **labels).observe(value)``."""
    if ENABLED:
        REGISTRY.histogram(name, **labels).observe(value)


def is_enabled() -> bool:
    """Whether instruments are currently recording."""
    return ENABLED


def snapshot() -> dict[str, Any]:
    """A cumulative snapshot of the process registry (see schema docs)."""
    return REGISTRY.snapshot()


def configure(enabled: bool) -> None:
    """Turn instrument recording on or off.

    The only metrics switch: where snapshots go is the :mod:`repro.obs`
    sink's business (``obs.configure`` or ``REPRO_TRACE``, which also
    turns recording on).  Turning recording off writes nothing.
    """
    global ENABLED
    ENABLED = bool(enabled)


def write_snapshot() -> dict[str, Any] | None:
    """Write one cumulative snapshot into the :mod:`repro.obs` sink.

    The sink is the trace (a pool worker's is its spool).  Returns the
    snapshot, or ``None`` while metrics are disabled; with no sink set
    the snapshot is only returned.
    """
    if not ENABLED:
        return None
    snap = REGISTRY.snapshot()
    from repro.obs import _tracer  # the tracer imports this module

    _tracer.emit_event(snap)
    return snap


#: Minimum seconds between :func:`maybe_write_snapshot` writes.
MIN_SNAPSHOT_INTERVAL_S = 0.5

_last_snapshot_write = 0.0


def maybe_write_snapshot() -> dict[str, Any] | None:
    """Throttled :func:`write_snapshot` for in-band callers.

    The scheduler calls this after every job it awaits, and the progress
    tracker on every emitted progress event, so a long batch or a
    long-running worker job appends snapshots as it goes.  At most one
    write per :data:`MIN_SNAPSHOT_INTERVAL_S`; returns the snapshot when
    one was written, else ``None``.
    """
    global _last_snapshot_write
    if not ENABLED:
        return None
    now = time.monotonic()
    if now - _last_snapshot_write < MIN_SNAPSHOT_INTERVAL_S:
        return None
    _last_snapshot_write = now
    return write_snapshot()


# -- snapshot files ------------------------------------------------------------


#: How many trailing bytes :func:`last_snapshot` reads first.
TAIL_BYTES = 256 * 1024


def last_snapshot(path: str) -> dict[str, Any] | None:
    """The newest whole metrics snapshot in ``path``, or ``None``.

    A trace holds spans and progress events between its snapshots, so a
    soak's file can be large: read the last :data:`TAIL_BYTES` and parse
    its lines from the end, widening the window only if it holds no
    snapshot.  Lines that do not parse are passed over: the first line
    of a window that starts mid-file, and a final line a killed writer
    cut off.  A missing file reads as ``None``.
    """
    try:
        with open(path, "rb") as handle:
            size = handle.seek(0, os.SEEK_END)
            window = TAIL_BYTES
            while True:
                start = max(0, size - window)
                handle.seek(start)
                for line in reversed(handle.read(size - start).splitlines()):
                    try:
                        record = json.loads(line)
                    except ValueError:
                        continue
                    if isinstance(record, dict) and record.get("event") == "metrics":
                        return record
                if start == 0:
                    return None
                window *= 4
    except OSError:
        return None


def histogram_readout(dump: Mapping[str, Any]) -> dict[str, float | int | None]:
    """Quantile readout computed from a snapshot's histogram *dump*."""
    scratch = Histogram("<snapshot>")
    scratch.merge_dump_delta(
        dump.get("buckets") or {},
        dump.get("count", 0),
        dump.get("sum", 0.0),
        dump.get("min"),
        dump.get("max"),
    )
    return scratch.readout()


def counter_total(counters: Mapping[str, float], name: str) -> float:
    """Sum of every counter in a snapshot dump whose *name* matches.

    Labeled variants (``serve.cache.hits{tier=memory}``) roll up into
    their base name, so derived rates don't depend on label layout.
    """
    return sum(
        value for key, value in counters.items() if decode_key(key)[0] == name
    )


def cache_hit_rate(counters: Mapping[str, float]) -> float | None:
    """The serve-cache hit rate implied by a counters dump, or ``None``."""
    hits = counter_total(counters, "serve.cache.hits")
    misses = counter_total(counters, "serve.cache.misses")
    total = hits + misses
    return hits / total if total else None
