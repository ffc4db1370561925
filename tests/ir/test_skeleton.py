"""Skeleton re-binding equals a fresh build, node for node and estimate
for estimate.

The DSE instantiates design points on one skeleton per structural class
(:mod:`repro.ir.skeleton`) instead of re-running each app's builder.
These tests pin that path to the rebuild path it replaced: the bound IR,
the legality verdict, every estimate (cached and uncached), and whole
explores and guided searches through every runtime path.
"""

from __future__ import annotations

import functools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.dse.search
from repro.apps import all_benchmarks, get_benchmark
from repro.dse import explore, local_search
from repro.estimation import Estimator
from repro.ir import Design, Float32, IRError
from repro.ir import builder as hw
from repro.ir.node import Node, ParamInt
from repro.ir.skeleton import Skeleton, instantiate
from repro.params import BoolParam
from repro.runtime.checkpoint import estimate_to_doc
from tests.toy import Toy, toy_design

PAPER_APPS = {b.name: b for b in all_benchmarks()}
APPS = {**PAPER_APPS, "toy": Toy()}


def _canon(value):
    assert type(value) is not ParamInt, "a parameter tag leaked into the IR"
    if isinstance(value, Node):
        return ("node", value.nid)
    if isinstance(value, (list, tuple)):
        return tuple(_canon(v) for v in value)
    return value


def fingerprint(design: Design):
    """Every public field of every node (node references as ids): kind,
    name, parent, op, inputs, dims/sizes/starts/par, width, banks,
    double buffering, body replication, constant values, ..."""
    nodes = [
        (type(n).__name__, {
            k: _canon(v) for k, v in vars(n).items()
            if k != "design" and not k.startswith("_")
        })
        for n in design.nodes
    ]
    tops = [
        _canon(getattr(design, f))
        for f in ("offchip_mems", "top_mems", "arg_outs", "top_controllers")
    ]
    return design.name, nodes, tops


def _outcome(fn):
    """(exception type or None, value)."""
    try:
        return None, fn()
    except Exception as exc:  # noqa: BLE001 - compared across both paths
        return type(exc), None


@pytest.fixture(scope="module")
def estimators(estimator):
    cold = Estimator(
        estimator.board, templates=estimator.templates,
        corrections=estimator.corrections, cache=False,
    )
    warm = Estimator(
        estimator.board, templates=estimator.templates,
        corrections=estimator.corrections,
    )
    return cold, warm


@st.composite
def point_runs(draw):
    """An app, a dataset and a run of points, some of them illegal:
    integers drawn past the candidate lists and constraints."""
    bench = APPS[draw(st.sampled_from(sorted(APPS)))]
    dataset = (bench.small_dataset() if draw(st.booleans())
               else bench.default_dataset())
    space = bench.param_space(dataset)

    def one_point():
        point = {}
        for param in space.params:
            if isinstance(param, BoolParam):
                point[param.name] = draw(st.booleans())
            else:
                top = max(param.candidates)
                point[param.name] = draw(st.one_of(
                    st.sampled_from(list(param.candidates)),
                    st.integers(min_value=-1, max_value=2 * top),
                ))
        return point

    legal = space.sample(random.Random(draw(st.integers(0, 10_000))), 3)
    points = [one_point() for _ in range(draw(st.integers(1, 3)))]
    return bench, dataset, draw(st.permutations(legal + points))


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(run=point_runs())
def test_bind_equals_build(estimators, run):
    bench, dataset, points = run
    cold, warm = estimators
    skeletons = {}
    build = functools.partial(bench.build, dataset)
    for params in points:
        built_exc, built = _outcome(lambda: bench.build(dataset, **params))
        bound_exc, bound = _outcome(
            lambda: instantiate(skeletons, build, params)
        )
        assert bound_exc is built_exc, params
        if built is None:
            assert built_exc is IRError, params
            continue
        assert fingerprint(bound) == fingerprint(built), params
        expected = estimate_to_doc(cold.estimate(built))
        assert estimate_to_doc(cold.estimate(bound)) == expected, params
        assert estimate_to_doc(warm.estimate(bound)) == expected, params


@pytest.mark.parametrize("name", sorted(APPS))
def test_rebind_a_b_a_leaves_no_stale_state(estimators, name):
    """A's second estimate equals its first after B was bound between."""
    bench = APPS[name]
    cold, warm = estimators
    dataset = bench.default_dataset()
    points = bench.param_space(dataset).sample(random.Random(3), 200)
    by_class = {}
    for p in points:
        key = tuple(sorted((k, v) for k, v in p.items() if type(v) is bool))
        by_class.setdefault(key, []).append(p)
    a, b = max(by_class.values(), key=len)[:2]
    skeletons = {}
    build = functools.partial(bench.build, dataset)
    docs = []
    for params in (a, b, a):
        design = instantiate(skeletons, build, params)
        docs.append(estimate_to_doc(warm.estimate(design)))
    assert sum(len(v) for v in skeletons.values()) == 1  # one shared skeleton
    assert docs[0] == docs[2]
    assert docs[0] != docs[1]
    assert docs[1] == estimate_to_doc(cold.estimate(bench.build(dataset, **b)))


# The toy branches on ``tile`` on purpose; its keys are pinned by
# ``test_every_slot_kind_rebinds_and_branches_join_the_key``.
@pytest.mark.parametrize("name", sorted(PAPER_APPS))
def test_class_key_is_the_boolean_parameters(name):
    bench = APPS[name]
    dataset = bench.default_dataset()
    space = bench.param_space(dataset)
    params = bench.default_params(dataset)
    skeleton = Skeleton.build(functools.partial(bench.build, dataset), params)
    assert skeleton.structural == {}
    assert skeleton.key == tuple(sorted(
        (p.name, params[p.name]) for p in space.params
        if isinstance(p, BoolParam)
    ))
    assert skeleton.design.param_slots  # the integers are all slots
    classes = 2 ** sum(isinstance(p, BoolParam) for p in space.params)
    skeletons = {}
    for point in space.sample(random.Random(5), 300):
        try:
            instantiate(skeletons, functools.partial(bench.build, dataset),
                        point)
        except IRError:
            pass
    assert sum(len(v) for v in skeletons.values()) <= classes


def test_every_slot_kind_rebinds_and_branches_join_the_key(estimators):
    cold, warm = estimators
    skeletons = {}
    points = [
        (128, 2, 2, 8), (32, 4, 1, 16), (128, 4, 1, 32), (32, 2, 4, 8),
        (128, 3, 1, 8),  # par does not divide the tile
        (128, 2, 3, 8),  # outer par does not divide the tile count
        (128, 2, 2, 0),  # empty queue
        (128, 8, 4, 64), (32, 1, 2, 4), (64, 2, 8, 16),
    ]
    for tile, par, outer, depth in points:
        params = {"tile": tile, "par": par, "outer": outer, "depth": depth,
                  "wide": True}
        built_exc, built = _outcome(lambda: toy_design(**params))
        bound_exc, bound = _outcome(
            lambda: instantiate(skeletons, toy_design, params)
        )
        assert bound_exc is built_exc, params
        if built is None:
            continue
        assert fingerprint(bound) == fingerprint(built), params
        expected = estimate_to_doc(cold.estimate(built))
        assert estimate_to_doc(warm.estimate(bound)) == expected, params
    keys = sorted(s.key for v in skeletons.values() for s in v)
    assert keys == [(("wide", True), ("tile", t)) for t in (32, 64, 128)]


def _rebuild(skeletons, build, params):
    """The path skeletons replaced: run the builder for every point."""
    return build(**params)


def _summary(result):
    return (
        result.legal_sampled,
        [(p.params, estimate_to_doc(p.estimate)) for p in result.points],
    )


def _per_point_reference(bench, cold, max_points, seed):
    """``_summary`` of a sweep, computed without the runtime: every
    sampled point built fresh and estimated on its own, memoization off."""
    dataset = bench.default_dataset()
    sampled = bench.param_space(dataset).sample(
        random.Random(seed), max_points
    )
    points = []
    for params in sampled:
        try:
            design = bench.build(dataset, **params)
        except IRError:
            continue
        points.append((params, estimate_to_doc(cold.estimate(design))))
    return len(sampled), points


@pytest.mark.parametrize("name", sorted(APPS))
def test_every_runtime_path_matches_the_rebuild_path(
    estimator, tmp_path, name
):
    bench = APPS[name]
    kwargs = dict(max_points=60, seed=11)

    def fresh(cache=True):
        return Estimator(
            estimator.board, templates=estimator.templates,
            corrections=estimator.corrections, cache=cache,
        )

    reference = _per_point_reference(bench, fresh(cache=False), **kwargs)

    assert _summary(explore(bench, fresh(), **kwargs)) == reference
    assert _summary(explore(bench, fresh(cache=False), **kwargs)) == reference
    assert _summary(
        explore(bench, fresh(), workers=2, shards=3, **kwargs)
    ) == reference

    ckpt = tmp_path / "ckpt"
    explore(bench, fresh(), shards=4, checkpoint_dir=ckpt, **kwargs)
    (ckpt / "shard-0001.jsonl").unlink()
    resumed = explore(bench, fresh(), shards=4, checkpoint_dir=ckpt,
                      resume=True, **kwargs)
    assert 0 < resumed.restored < resumed.legal_sampled
    assert _summary(resumed) == reference


@pytest.mark.parametrize("name", ["tpchq6", "gda"])
def test_local_search_matches_the_rebuild_path(estimator, monkeypatch, name):
    bench = get_benchmark(name)

    def search(cache=True):
        est = Estimator(
            estimator.board, templates=estimator.templates,
            corrections=estimator.corrections, cache=cache,
        )
        result = local_search(bench, est, budget=80, seed=4)
        return (result.evaluations, result.restarts, result.trajectory,
                result.best.params, estimate_to_doc(result.best.estimate))

    with monkeypatch.context() as m:
        m.setattr(repro.dse.search, "instantiate", _rebuild)
        reference = search()
    assert search() == reference
    assert search(cache=False) == reference
