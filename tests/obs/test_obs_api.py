"""Tests for the module-level obs facade and pipeline instrumentation."""

import time

import pytest

from repro import obs
from repro.apps import get_benchmark
from repro.dse import explore
from repro.sim import simulate


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test starts and ends with global observability off and empty."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestFacade:
    def test_disabled_by_default(self):
        assert not obs.trace_enabled() and not obs.metrics_enabled()
        assert obs.span("x") is obs.NULL_SPAN

    def test_enable_disable_individual(self):
        obs.enable(trace=True)
        assert obs.trace_enabled() and not obs.metrics_enabled()
        obs.enable(metrics=True)
        assert obs.metrics_enabled()
        obs.enable(metrics=False)
        assert obs.trace_enabled() and not obs.metrics_enabled()
        obs.disable()
        assert not obs.trace_enabled()

    def test_enable_no_args_enables_both(self):
        obs.enable()
        assert obs.trace_enabled() and obs.metrics_enabled()

    def test_timed_records_span_and_histogram(self):
        obs.enable()
        with obs.timed("pass", "pass.latency_s", design="d") as span:
            span.set(cycles=9)
        (span,) = obs.tracer().find("pass")
        assert span.attrs == {"design": "d", "cycles": 9}
        assert obs.histogram("pass.latency_s").count == 1

    def test_timed_metrics_only(self):
        obs.enable(metrics=True)
        with obs.timed("pass", "pass.latency_s"):
            pass
        assert obs.tracer().spans == []
        assert obs.histogram("pass.latency_s").count == 1

    def test_timed_disabled_is_noop_singleton(self):
        assert obs.timed("pass", "h") is obs.NULL_SPAN


class TestPipelineInstrumentation:
    def test_explore_produces_nested_spans_and_counters(self, estimator):
        # An uncached explore runs the same loop as a cached one: each
        # design's cycles/area.raw passes directly under explore, the NN
        # corrections in estimate.batch blocks. The cached shape and its
        # cache counters are covered by the test below.
        from repro.estimation import Estimator

        cold = Estimator(
            estimator.board, templates=estimator.templates,
            corrections=estimator.corrections, cache=False,
        )
        obs.enable()
        bench = get_benchmark("dotproduct")
        result = explore(bench, cold, max_points=12, progress_every=5)
        tracer = obs.tracer()

        (exp,) = tracer.find("explore")
        assert exp.attrs["bench"] == "dotproduct"
        assert exp.attrs["points"] == len(result.points)

        assert not tracer.find("estimate")
        batches = tracer.find("estimate.batch")
        assert batches and all(s.parent_id == exp.span_id for s in batches)
        assert sum(s.attrs["batch"] for s in batches) == len(result.points)
        for name in ("cycles", "area.raw"):
            spans = tracer.find(name)
            assert len(spans) == len(result.points)
            assert all(s.parent_id == exp.span_id for s in spans)
        assert len(tracer.find("area.nn")) == len(batches)

        snap = obs.metrics().to_dict()
        counts = snap["counters"]
        assert counts["dse.points.sampled"] == result.legal_sampled
        assert (
            counts["dse.points.valid"] + counts["dse.points.unfit"]
            == len(result.points)
        )
        assert counts["estimate.calls"] == len(result.points)
        assert "estimation.cache.hit" not in counts
        hist = snap["histograms"]["dse.point_latency_s"]
        assert hist["count"] == len(result.points)
        assert 0 < hist["p50"] <= hist["p95"] <= hist["max"]

        progress = [
            e for e in tracer.instants if e.name == "dse.progress"
        ]
        assert progress and progress[0].attrs["points_per_sec"] > 0

    def test_explore_batched_spans_and_cache_counters(self, estimator):
        """The cached estimator traces estimate.batch blocks instead of
        per-point estimate spans, plus estimation.cache.* counters. Each
        design's cycles/area.raw passes run as soon as the point is
        instantiated, directly under explore, before its block flushes."""
        assert estimator.caches is not None
        estimator.caches.clear()  # session fixture may be warm already
        obs.enable()
        bench = get_benchmark("dotproduct")
        result = explore(bench, estimator, max_points=12, progress_every=5)
        tracer = obs.tracer()

        (exp,) = tracer.find("explore")
        batches = tracer.find("estimate.batch")
        assert batches and all(
            s.parent_id == exp.span_id for s in batches
        )
        assert sum(s.attrs["batch"] for s in batches) == len(result.points)
        for name in ("cycles", "area.raw"):
            spans = tracer.find(name)
            assert len(spans) == len(result.points)
            assert all(s.parent_id == exp.span_id for s in spans)
        # One vectorized NN pass per block, not one per design.
        nn = tracer.find("area.nn")
        assert len(nn) == len(batches)

        counts = obs.metrics().to_dict()["counters"]
        assert counts["estimate.calls"] == len(result.points)
        assert counts.get("estimation.cache.hit", 0) > 0
        assert counts.get("estimation.cache.miss", 0) > 0
        hist = obs.metrics().to_dict()["histograms"]["dse.point_latency_s"]
        assert hist["count"] == len(result.points)

    @pytest.mark.parametrize("cache", [True, False])
    def test_build_is_traced_under_explore(self, estimator, cache):
        """Every build gets a ``build`` span under ``explore`` and one
        ``pass.build_s`` observation, with caches on and off."""
        from repro.estimation import Estimator

        fresh = Estimator(
            estimator.board, templates=estimator.templates,
            corrections=estimator.corrections, cache=cache,
        )
        obs.enable()
        result = explore(get_benchmark("gda"), fresh, max_points=30, seed=4)
        tracer = obs.tracer()
        (exp,) = tracer.find("explore")
        builds = tracer.find("build")
        assert len(builds) == len(result.points) == 30
        assert all(s.parent_id == exp.span_id for s in builds)
        hist = obs.metrics().to_dict()["histograms"]["pass.build_s"]
        assert hist["count"] == len(builds)

    def test_simulate_traces_controller_hierarchy(self, estimator):
        obs.enable(trace=True)
        bench = get_benchmark("dotproduct")
        design = bench.build(
            bench.default_dataset(),
            **bench.default_params(bench.default_dataset()),
        )
        sim = simulate(design)
        tracer = obs.tracer()
        (top,) = tracer.find("simulate")
        assert top.attrs["cycles"] == sim.cycles
        ctrls = tracer.find("sim.ctrl")
        assert len(ctrls) == len(sim.per_controller)
        for span in ctrls:
            assert span.attrs["cycles"] == sim.per_controller[
                span.attrs["ctrl"]
            ]

    def test_disabled_instrumentation_cost_is_tiny(self):
        """The null-path cost per DSE point stays far below 5% of the
        ~1 ms a real estimate takes (acceptance criterion)."""
        obs.disable()
        n = 1000
        hist = obs.histogram("dse.point_latency_s")
        cnt = obs.counter("dse.points.valid")
        start = time.perf_counter()
        for _ in range(n):
            t0 = time.perf_counter()
            with obs.timed("estimate", "estimate.latency_s", design="d"):
                pass
            hist.observe(time.perf_counter() - t0)
            cnt.inc()
        elapsed = time.perf_counter() - start
        # 1000 points at ~1 ms each -> 5% budget is 50 ms; the null path
        # measures in the hundreds of microseconds. Generous CI bound:
        assert elapsed < 0.05
