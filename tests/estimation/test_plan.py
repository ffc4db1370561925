"""Estimation plans: compile once per structural class, replay per point.

A DSE binds each point onto its class's skeleton (:mod:`repro.ir.skeleton`)
and prices it by replaying the plan compiled on the class's first point
(:mod:`repro.estimation.plan`). These tests pin every replayed estimate
to the per-point reference: a fresh build of the point, estimated by
:meth:`Estimator.estimate` with memoization off.
"""

from __future__ import annotations

import functools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import all_benchmarks
from repro.estimation import Estimator, estimate_cycles
from repro.ir import IRError
from repro.ir.skeleton import instantiate
from repro.params import BoolParam
from repro.runtime import run_shard
from repro.runtime.checkpoint import estimate_to_doc
from repro.runtime.sharding import Shard
from tests.toy import Toy

APPS = {**{b.name: b for b in all_benchmarks()}, "toy": Toy()}


@pytest.fixture(scope="module")
def estimators(estimator):
    def fresh(cache):
        return Estimator(
            estimator.board, templates=estimator.templates,
            corrections=estimator.corrections, cache=cache,
        )

    return fresh(False), fresh(True)


@st.composite
def point_sequences(draw):
    """One app's points in the order a sweep could meet them.

    Class switches: the first point, then the same point with every
    toggle flipped, and the first point again at the end. Near-misses:
    legal points with one integer redrawn past its candidates, so that
    a re-bind of an existing skeleton can fail half-way.
    """
    bench = APPS[draw(st.sampled_from(sorted(APPS)))]
    dataset = (bench.small_dataset() if draw(st.booleans())
               else bench.default_dataset())
    space = bench.param_space(dataset)
    legal = space.sample(random.Random(draw(st.integers(0, 10_000))), 4)
    first = legal[0]
    flipped = {k: (not v if isinstance(v, bool) else v)
               for k, v in first.items()}
    ints = [p for p in space.params if not isinstance(p, BoolParam)]

    def near_miss():
        point = dict(draw(st.sampled_from(legal)))
        param = draw(st.sampled_from(ints))
        top = max(param.candidates)
        point[param.name] = draw(st.integers(min_value=-1, max_value=2 * top))
        return point

    misses = [near_miss() for _ in range(draw(st.integers(1, 4)))]
    middle = draw(st.permutations(legal[1:] + misses))
    return bench, dataset, [first, flipped, *middle, first]


def _reference(cold, bench, dataset, params):
    """The per-point estimate of a fresh build, or None if illegal."""
    try:
        design = bench.build(dataset, **params)
    except IRError:
        return None
    return estimate_to_doc(cold.estimate(design))


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(run=point_sequences())
def test_replay_equals_a_fresh_build(estimators, run):
    bench, dataset, points = run
    cold = estimators[0]
    expected = [_reference(cold, bench, dataset, p) for p in points]
    for estimator in estimators:  # memoization off, then on
        skeletons, plans = {}, {}
        build = functools.partial(bench.build, dataset)
        for params, reference in zip(points, expected):
            try:
                design = instantiate(skeletons, build, params)
            except IRError:
                assert reference is None, params
                continue
            assert reference is not None, params
            plan = plans.get(design)
            if plan is None:
                plan = plans[design] = estimator.plan(design)
            (estimate,) = estimator.finish_many([plan.analyze()])
            assert estimate_to_doc(estimate) == reference, params
        assert len(plans) == sum(len(v) for v in skeletons.values())


@pytest.mark.parametrize("cache", [False, True])
@pytest.mark.parametrize("name", sorted(APPS))
def test_run_shard_compiles_once_per_class(
    estimators, monkeypatch, name, cache
):
    """The sweep loop compiles a plan on the first point of each class
    only, and every record equals the per-point reference."""
    bench = APPS[name]
    cold = estimators[0]
    estimator = estimators[cache]
    dataset = bench.default_dataset()
    points = bench.param_space(dataset).sample(random.Random(13), 40)
    compiled = []
    compile_plan = type(estimator).plan

    def counting_plan(self, design):
        compiled.append(design)
        return compile_plan(self, design)

    monkeypatch.setattr(type(estimator), "plan", counting_plan)
    outcome = run_shard(bench, estimator, dataset, Shard(0, 0, points))
    skeletons = {}
    for params in points:
        try:
            instantiate(
                skeletons, functools.partial(bench.build, dataset), params
            )
        except IRError:
            pass
    classes = sum(len(v) for v in skeletons.values())
    assert len(compiled) == len(set(map(id, compiled))) == classes
    for record in outcome.records:
        reference = _reference(cold, bench, dataset, record.params)
        got = None if record.estimate is None else estimate_to_doc(
            record.estimate
        )
        assert got == reference, record.params


@pytest.mark.parametrize("name", sorted(APPS))
def test_parameter_tuples_are_template_cache_keys(estimators, name):
    """Each template term reads its parameters sorted by name, the form
    ``CachedTemplateModels`` keys predictions on."""
    bench = APPS[name]
    dataset = bench.default_dataset()
    design = bench.build(dataset, **bench.default_params(dataset))
    plan = estimators[1].plan(design)
    readers = [read for key, read, *_ in plan.area.terms if key is not None]
    assert readers
    for read in readers:
        params = read()
        if params is None:  # a reduction tree over a single lane
            continue
        names = [n for n, _ in params]
        assert names == sorted(names) and len(set(names)) == len(names)


def test_replay_skips_the_per_controller_breakdown(estimators):
    bench = APPS["gda"]
    dataset = bench.default_dataset()
    design = bench.build(dataset, **bench.default_params(dataset))
    analysis = estimators[1].plan(design).analyze()
    one_shot = estimate_cycles(design, estimators[1].board)
    assert analysis.cycles.per_controller == {}
    assert analysis.cycles.total == one_shot.total
    assert len(one_shot.per_controller) == sum(1 for _ in design.controllers())
