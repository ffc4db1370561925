"""DRAM contention accounting: wait cycles and the ``dram.*`` metrics."""

import pytest

from repro import obs
from repro.sim.dram import simulate_transfer
from repro.target import MAIA

from .test_dram_paths import make_2d_transfer


@pytest.fixture()
def stream_bound():
    # Long contiguous rows: streaming dominates issue, so contention
    # actually shows up in total time.
    return make_2d_transfer(rows=2, row_words=8192)


class TestWaitCycles:
    def test_solo_transfer_never_waits(self, stream_bound):
        timing = simulate_transfer(stream_bound, MAIA, streams=1)
        assert timing.wait == 0.0

    def test_contended_transfer_waits(self, stream_bound):
        timing = simulate_transfer(stream_bound, MAIA, streams=4)
        assert timing.wait > 0.0
        # Wait is exactly the streaming time beyond the solo-rate time.
        solo = simulate_transfer(stream_bound, MAIA, streams=1)
        assert timing.wait == pytest.approx(timing.stream - solo.stream)

    def test_wait_grows_with_streams(self, stream_bound):
        waits = [
            simulate_transfer(stream_bound, MAIA, streams=s).wait
            for s in (1, 2, 4, 8)
        ]
        assert waits == sorted(waits)
        assert waits[-1] > waits[0]

    def test_port_bound_transfer_never_waits(self):
        # par=1 throttles the fabric port far below DRAM bandwidth: the
        # port, not sibling streams, is the bottleneck, so splitting DRAM
        # bandwidth two ways costs (almost) nothing.
        t = make_2d_transfer(rows=2, row_words=8192, par=1)
        solo = simulate_transfer(t, MAIA, streams=1)
        shared = simulate_transfer(t, MAIA, streams=2)
        assert solo.wait == 0.0
        assert shared.wait < shared.stream * 0.2


class TestContentionMetrics:
    def test_transfers_feed_dram_instruments(self, stream_bound):
        obs.reset()
        obs.enable(metrics=True)
        try:
            timing = simulate_transfer(stream_bound, MAIA, streams=4)
            doc = obs.metrics().to_dict()
        finally:
            obs.disable()
            obs.reset()
        assert doc["counters"]["dram.transfers"] == 1
        assert doc["counters"]["dram.bytes"] == timing.bytes_moved
        assert doc["counters"]["dram.contention_cycles"] == int(timing.wait)
        assert doc["histograms"]["dram.wait_cycles"]["count"] == 1
        assert doc["histograms"]["dram.interleave_efficiency"]["count"] == 1
        assert doc["histograms"]["dram.wait_cycles"]["unit"] == "cycles"
        assert doc["histograms"]["dram.interleave_efficiency"]["unit"] == "ratio"

    def test_disabled_metrics_record_nothing(self, stream_bound):
        obs.reset()
        simulate_transfer(stream_bound, MAIA, streams=4)
        assert obs.metrics().to_dict()["counters"] == {}

    def test_simulated_design_reports_contention(self, estimator):
        """End to end: simulating a real benchmark records dram.* metrics."""
        from repro.apps import get_benchmark
        from repro.sim import simulate

        bench = get_benchmark("dotproduct")
        ds = bench.default_dataset()
        design = bench.build(ds, **bench.default_params(ds))
        obs.reset()
        obs.enable(metrics=True)
        try:
            simulate(design, MAIA)
            counters = obs.metrics().to_dict()["counters"]
        finally:
            obs.disable()
            obs.reset()
        assert counters["dram.transfers"] > 0
        assert counters["dram.bytes"] > 0
