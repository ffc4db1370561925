"""Tests for the hybrid area estimator against the synthesis substrate."""

import pytest

from repro.apps import get_benchmark
from repro.estimation import raw_area
from repro.synth import synthesize


def rel_err(est, true):
    return abs(est - true) / max(true, 1)


@pytest.fixture(scope="module")
def dp_design():
    bench = get_benchmark("dotproduct")
    ds = bench.default_dataset()
    return bench.build(ds, tile=12000, par_load=16, par_inner=16,
                       metapipe=True)


class TestRawCounts:
    def test_counts_nonnegative(self, estimator, dp_design):
        raw = raw_area(dp_design, estimator.templates)
        c = raw.counts
        assert min(c.luts_packable, c.luts_unpackable, c.regs, c.dsps,
                   c.brams) >= 0

    def test_wire_bits_positive(self, estimator, dp_design):
        assert raw_area(dp_design, estimator.templates).wire_bits > 0

    def test_dsp_count_matches_lanes(self, estimator, dp_design):
        raw = raw_area(dp_design, estimator.templates)
        # 16 multiply lanes + reduce tree (15 + 1 accumulator adders use
        # DSPs for float add in our device model).
        assert raw.counts.dsps == pytest.approx(16, abs=2)


class TestHybridAccuracy:
    """Estimate-vs-synthesis error bounds, Table III style."""

    @pytest.mark.parametrize(
        "params",
        [
            dict(tile=2000, par_load=4, par_inner=4, metapipe=True),
            dict(tile=12000, par_load=16, par_inner=16, metapipe=True),
            dict(tile=24000, par_load=32, par_inner=48, metapipe=True),
            dict(tile=4000, par_load=8, par_inner=8, metapipe=False),
        ],
    )
    def test_alm_error_within_bounds(self, estimator, params):
        bench = get_benchmark("dotproduct")
        design = bench.build(bench.default_dataset(), **params)
        est = estimator.estimate_area(design)
        rep = synthesize(design)
        assert rel_err(est.alms, rep.alms) < 0.20

    def test_dsp_estimate_exact_ordering(self, estimator):
        bench = get_benchmark("dotproduct")
        ds = bench.default_dataset()
        estimates, reports = [], []
        for par in (4, 16, 48):
            d = bench.build(ds, tile=12000, par_load=16, par_inner=par,
                            metapipe=True)
            estimates.append(estimator.estimate_area(d).dsps)
            reports.append(synthesize(d).dsps)
        assert estimates == sorted(estimates)
        assert reports == sorted(reports)

    def test_bram_ordering_preserved(self, estimator):
        """The paper: BRAM estimates 'track actual usage and preserve
        ordering across designs'."""
        bench = get_benchmark("dotproduct")
        ds = bench.default_dataset()
        estimates, reports = [], []
        for tile in (2000, 8000, 24000):
            d = bench.build(ds, tile=tile, par_load=8, par_inner=8,
                            metapipe=True)
            estimates.append(estimator.estimate_area(d).brams)
            reports.append(synthesize(d).brams)
        assert estimates == sorted(estimates)
        assert reports == sorted(reports)

    def test_breakdown_fields_populated(self, estimator, dp_design):
        est = estimator.estimate_area(dp_design)
        assert est.routing_luts > 0
        assert est.duplicated_regs > 0
        assert est.unavailable_luts > 0
        assert est.duplicated_brams >= 0

    def test_utilization_fractions(self, estimator, dp_design):
        est = estimator.estimate_area(dp_design)
        util = est.utilization(estimator.board.device)
        assert 0 < util["alms"] < 1
        assert est.fits(estimator.board.device)


class TestFullEstimate:
    def test_estimate_combines_cycles_and_area(self, estimator, dp_design):
        est = estimator.estimate(dp_design)
        assert est.cycles > 0
        assert est.seconds == pytest.approx(
            est.cycles / estimator.board.fabric_clock_hz
        )
        assert est.alms == est.area.alms

    def test_estimation_is_fast(self, estimator, dp_design):
        import time

        estimator.estimate(dp_design)  # warm
        t0 = time.perf_counter()
        for _ in range(10):
            estimator.estimate(dp_design)
        per_design = (time.perf_counter() - t0) / 10
        # Paper: 5-29 ms per design point.
        assert per_design < 0.05
