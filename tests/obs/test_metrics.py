"""Tests for counters, gauges, and histograms (repro.obs.metrics)."""

import threading

import pytest

from repro.obs import MetricsRegistry
from repro.obs.metrics import NULL_COUNTER, NULL_HISTOGRAM


class TestCounter:
    def test_inc_defaults_to_one(self):
        reg = MetricsRegistry(enabled=True)
        c = reg.counter("points")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_same_name_same_instrument(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("x").inc()
        reg.counter("x").inc()
        assert reg.counter("x").value == 2


class TestGauge:
    def test_last_write_wins(self):
        reg = MetricsRegistry(enabled=True)
        g = reg.gauge("rate")
        g.set(10.0)
        g.set(2.5)
        assert g.value == 2.5


class TestHistogram:
    def test_exact_percentiles(self):
        reg = MetricsRegistry(enabled=True)
        h = reg.histogram("lat")
        for v in range(1, 101):  # 1..100
            h.observe(float(v))
        assert h.count == 100
        assert h.max == 100.0
        assert h.min == 1.0
        assert h.percentile(50) == pytest.approx(50.5)
        assert h.percentile(95) == pytest.approx(95.05)
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 100.0

    def test_percentiles_interleaved_with_observations(self):
        reg = MetricsRegistry(enabled=True)
        h = reg.histogram("lat")
        h.observe(3.0)
        h.observe(1.0)
        assert h.percentile(100) == 3.0
        h.observe(2.0)  # arrives after a percentile query re-sorted
        assert h.percentile(50) == 2.0

    def test_empty_and_single(self):
        reg = MetricsRegistry(enabled=True)
        h = reg.histogram("lat")
        assert h.percentile(95) == 0.0 and h.mean == 0.0
        h.observe(7.0)
        assert h.percentile(50) == 7.0 and h.summary()["p95"] == 7.0

    def test_summary_keys(self):
        reg = MetricsRegistry(enabled=True)
        h = reg.histogram("lat")
        h.observe(1.0)
        h.observe(3.0)
        s = h.summary()
        assert set(s) == {"count", "total", "mean", "p50", "p95", "max"}
        assert s["count"] == 2 and s["total"] == 4.0 and s["mean"] == 2.0

    def test_thread_safe_observe(self):
        reg = MetricsRegistry(enabled=True)
        h = reg.histogram("lat")

        def worker():
            for i in range(1000):
                h.observe(float(i))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.count == 4000


class TestRegistry:
    def test_disabled_returns_shared_noops(self):
        reg = MetricsRegistry(enabled=False)
        assert reg.counter("a") is NULL_COUNTER
        assert reg.histogram("b") is NULL_HISTOGRAM
        reg.counter("a").inc()
        reg.histogram("b").observe(1.0)
        reg.gauge("c").set(2.0)
        assert not reg
        assert reg.to_dict() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }

    def test_to_dict_snapshot(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("points.valid").inc(3)
        reg.gauge("rate").set(1.5)
        reg.histogram("lat").observe(0.25)
        snap = reg.to_dict()
        assert snap["counters"] == {"points.valid": 3}
        assert snap["gauges"] == {"rate": 1.5}
        assert snap["histograms"]["lat"]["count"] == 1

    def test_summary_table_mentions_instruments(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("dse.points.valid").inc(42)
        reg.histogram("dse.point_latency_s").observe(0.001)
        table = reg.summary_table()
        assert "dse.points.valid" in table and "42" in table
        assert "dse.point_latency_s" in table
        assert "p95" in table

    def test_summary_table_formats_each_histogram_by_its_unit(self):
        reg = MetricsRegistry(enabled=True)
        reg.histogram("dram.wait_cycles", unit="cycles").observe(91_113)
        reg.histogram("dram.interleave_efficiency", unit="ratio").observe(
            0.89696
        )
        reg.histogram("pass.build_s").observe(0.000123)
        rows = {
            line.split()[0]: line.split()[2:]
            for line in reg.summary_table().splitlines()[2:]
        }
        assert rows["dram.wait_cycles"] == ["91.1kcyc"] * 4
        assert rows["dram.interleave_efficiency"] == ["0.897"] * 4
        assert rows["pass.build_s"] == ["123.0us"] * 4

    def test_to_dict_carries_the_unit(self):
        reg = MetricsRegistry(enabled=True)
        reg.histogram("lat").observe(0.25)
        reg.histogram("wait", unit="cycles").observe(3)
        hists = reg.to_dict()["histograms"]
        assert hists["lat"]["unit"] == "s"
        assert hists["wait"]["unit"] == "cycles"

    def test_histogram_unit_is_fixed_and_known(self):
        reg = MetricsRegistry(enabled=True)
        reg.histogram("wait", unit="cycles")
        assert reg.histogram("wait", unit="cycles").unit == "cycles"
        with pytest.raises(ValueError, match="in 'cycles'"):
            reg.histogram("wait")
        with pytest.raises(ValueError, match="unknown unit"):
            reg.histogram("depth", unit="furlongs")

    def test_summary_table_empty(self):
        reg = MetricsRegistry(enabled=True)
        assert "no metrics recorded" in reg.summary_table()

    def test_reset(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("a").inc()
        assert reg
        reg.reset()
        assert not reg
        assert reg.counter("a").value == 0
