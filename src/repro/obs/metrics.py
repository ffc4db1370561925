"""Metrics registry: counters, gauges, and latency histograms.

Complements the tracer with aggregate numbers — how many DSE points were
sampled / illegal / unfit / valid, the per-point estimation-latency
distribution (p50/p95/max), per-pass timing totals. Instruments are
created on demand by name; a disabled registry hands out shared no-op
instruments so instrumentation in hot loops costs one flag check.

All instruments are thread-safe. Histograms keep raw observations (a DSE
run records one float per point — tens of kilobytes at paper scale), so
percentiles are exact, not approximated. Each histogram declares the unit
of its observations (:data:`UNITS`, seconds by default); the summary
table formats by it and :meth:`MetricsRegistry.to_dict` reports it.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Union

__all__ = [
    "UNITS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
]


#: Histogram units the summary table knows how to format.
UNITS = ("s", "cycles", "ratio")


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, n: Union[int, float] = 1) -> None:
        """Add ``n`` (default 1) to the counter."""
        with self._lock:
            self._value += n

    @property
    def value(self) -> Union[int, float]:
        return self._value


class Gauge:
    """Last-write-wins value (e.g. current points/sec)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge with ``value``."""
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Distribution of observations with exact percentile summaries."""

    __slots__ = ("name", "unit", "_lock", "_values", "_sorted")

    def __init__(self, name: str, unit: str = "s") -> None:
        if unit not in UNITS:
            raise ValueError(f"histogram {name!r}: unknown unit {unit!r}")
        self.name = name
        self.unit = unit
        self._lock = threading.Lock()
        self._values: List[float] = []
        self._sorted = True

    def observe(self, value: float) -> None:
        """Record one observation."""
        with self._lock:
            self._values.append(float(value))
            self._sorted = False

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def total(self) -> float:
        with self._lock:
            return sum(self._values)

    @property
    def mean(self) -> float:
        with self._lock:
            return sum(self._values) / len(self._values) if self._values else 0.0

    @property
    def max(self) -> float:
        with self._lock:
            return max(self._values) if self._values else 0.0

    @property
    def min(self) -> float:
        with self._lock:
            return min(self._values) if self._values else 0.0

    def percentile(self, p: float) -> float:
        """Exact percentile (nearest-rank with linear interpolation)."""
        with self._lock:
            if not self._values:
                return 0.0
            if not self._sorted:
                self._values.sort()
                self._sorted = True
            vals = self._values
            if len(vals) == 1:
                return vals[0]
            rank = (p / 100.0) * (len(vals) - 1)
            lo = int(rank)
            hi = min(lo + 1, len(vals) - 1)
            frac = rank - lo
            return vals[lo] * (1.0 - frac) + vals[hi] * frac

    def summary(self) -> Dict[str, float]:
        """count / total / mean / p50 / p95 / max in one dict."""
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "max": self.max,
        }


class _NullInstrument:
    """Shared no-op counter/gauge/histogram for a disabled registry."""

    __slots__ = ()
    name = "<disabled>"
    count = 0
    total = 0.0
    mean = 0.0
    max = 0.0
    min = 0.0
    value = 0

    def inc(self, n: Union[int, float] = 1) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None

    def percentile(self, p: float) -> float:
        return 0.0

    def summary(self) -> Dict[str, float]:
        return {"count": 0, "total": 0.0, "mean": 0.0,
                "p50": 0.0, "p95": 0.0, "max": 0.0}


NULL_COUNTER = _NullInstrument()
NULL_GAUGE = _NullInstrument()
NULL_HISTOGRAM = _NullInstrument()


class MetricsRegistry:
    """Named instruments, created on first use.

    ``counter``/``gauge``/``histogram`` return live instruments when the
    registry is enabled and shared no-ops otherwise, so callers never
    branch on the enabled flag themselves.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """Fetch/create the named counter (no-op when disabled)."""
        if not self.enabled:
            return NULL_COUNTER  # type: ignore[return-value]
        with self._lock:
            inst = self._counters.get(name)
            if inst is None:
                inst = self._counters[name] = Counter(name)
            return inst

    def gauge(self, name: str) -> Gauge:
        """Fetch/create the named gauge (no-op when disabled)."""
        if not self.enabled:
            return NULL_GAUGE  # type: ignore[return-value]
        with self._lock:
            inst = self._gauges.get(name)
            if inst is None:
                inst = self._gauges[name] = Gauge(name)
            return inst

    def histogram(self, name: str, unit: str = "s") -> Histogram:
        """Fetch/create the named histogram (no-op when disabled).

        ``unit`` is one of :data:`UNITS`; a name keeps the unit it was
        created with, and asking for it in another unit is an error.
        """
        if not self.enabled:
            return NULL_HISTOGRAM  # type: ignore[return-value]
        with self._lock:
            inst = self._histograms.get(name)
            if inst is None:
                inst = self._histograms[name] = Histogram(name, unit)
            elif inst.unit != unit:
                raise ValueError(
                    f"histogram {name!r} is in {inst.unit!r}, not {unit!r}"
                )
            return inst

    def reset(self) -> None:
        """Forget every instrument and its data."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def __bool__(self) -> bool:
        """True when any instrument holds data."""
        return bool(self._counters or self._gauges or self._histograms)

    # -- export ------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot of every instrument (histograms with unit)."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {n: c.value for n, c in sorted(counters.items())},
            "gauges": {n: g.value for n, g in sorted(gauges.items())},
            "histograms": {
                n: {**h.summary(), "unit": h.unit}
                for n, h in sorted(histograms.items())
            },
        }

    def summary_table(self, title: Optional[str] = "metrics") -> str:
        """Human-readable table of every instrument (CLI ``--metrics``)."""
        lines: List[str] = []
        if title:
            lines.append(f"-- {title} " + "-" * max(1, 58 - len(title)))
        snap = self.to_dict()
        if snap["counters"]:
            lines.append(f"{'counter':40s} {'value':>14s}")
            for name, value in snap["counters"].items():
                lines.append(f"{name:40s} {value:>14,}")
        if snap["gauges"]:
            lines.append(f"{'gauge':40s} {'value':>14s}")
            for name, value in snap["gauges"].items():
                lines.append(f"{name:40s} {value:>14,.3f}")
        if snap["histograms"]:
            lines.append(
                f"{'histogram':28s} {'count':>8s} {'mean':>10s} "
                f"{'p50':>10s} {'p95':>10s} {'max':>10s}"
            )
            for name, s in snap["histograms"].items():
                unit = s["unit"]
                lines.append(
                    f"{name:28s} {s['count']:8,d} "
                    + " ".join(
                        format_value(s[k], unit)
                        for k in ("mean", "p50", "p95", "max")
                    )
                )
        if len(lines) <= 1:
            lines.append("(no metrics recorded)")
        return "\n".join(lines)


def format_value(value: float, unit: str = "s") -> str:
    """Render one observation in ``unit`` as a 10-character table cell.

    Seconds scale to us/ms/s, cycles take k/M/G prefixes, and a ratio
    prints as a plain number.
    """
    if value == 0:
        return f"{'0':>10s}"
    if unit == "ratio":
        return f"{value:>10.3f}"
    if unit == "s":
        if value < 1e-3:
            return f"{value * 1e6:>8.1f}us"
        if value < 1.0:
            return f"{value * 1e3:>8.2f}ms"
        return f"{value:>9.3f}s"
    for scale, prefix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(value) >= scale:
            return f"{value / scale:>6.1f}{prefix}cyc"
    return f"{value:>7.1f}cyc"
