"""Golden digests: estimates stay bit-identical across refactors.

For every registered app and the toy app (``tests/toy.py``, which
reaches the priority queue, ``floor`` and ``minimum``), a fixed seeded
sample of design points is built and estimated with a committed set of
trained models
(``tests/golden/estimator_models.json``, so training numerics play no
part). The SHA-256 of the points' ``estimate_to_doc`` records must match
``tests/golden/estimate_digests.json`` on the cold, cached and batched
paths alike, and for designs instantiated on skeletons.

Regenerate both fixtures only when an estimate is meant to change::

    PYTHONPATH=src python -m tests.estimation.test_golden_estimates
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.apps import all_benchmarks
from repro.estimation import Estimator
from repro.estimation.store import load_estimator, save_estimator
from repro.ir import IRError
from repro.ir.skeleton import instantiate
from repro.runtime.checkpoint import estimate_to_doc
from repro.target import MAIA
from tests.toy import Toy

GOLDEN = Path(__file__).resolve().parent.parent / "golden"
MODELS = GOLDEN / "estimator_models.json"
DIGESTS = GOLDEN / "estimate_digests.json"
POINTS_PER_APP = 8
SAMPLE_SEED = 2024

APPS = {b.name: b for b in all_benchmarks() + [Toy()]}


def sample_designs(name, skeletons=None):
    """Legal designs for the fixed seeded sample of one app.

    With a ``skeletons`` store the designs are instantiated on skeletons
    (:mod:`repro.ir.skeleton`), as DSE does: a generator whose designs
    must each be used before the next is bound.
    """
    bench = APPS[name]
    dataset = bench.default_dataset()
    points = bench.param_space(dataset).sample(
        random.Random(SAMPLE_SEED), POINTS_PER_APP
    )
    build = functools.partial(bench.build, dataset)
    for point in points:
        try:
            if skeletons is None:
                yield build(**point)
            else:
                yield instantiate(skeletons, build, point)
        except IRError:
            continue


def digest(estimates) -> str:
    docs = [estimate_to_doc(e) for e in estimates]
    return hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(DIGESTS.read_text())


@pytest.fixture(scope="module")
def estimators():
    cached = load_estimator(MODELS, MAIA)
    cold = Estimator(
        MAIA, templates=cached.templates, corrections=cached.corrections,
        cache=False,
    )
    return cold, cached


@pytest.mark.parametrize("name", sorted(APPS))
def test_estimates_match_golden_digest(golden, estimators, name):
    cold, cached = estimators
    expected = golden["apps"][name]
    designs = list(sample_designs(name))
    assert len(designs) == expected["designs"]
    assert digest(cold.estimate(d) for d in designs) == expected["sha256"]
    assert digest(cached.estimate(d) for d in designs) == expected["sha256"]
    assert digest(cached.estimate_many(designs)) == expected["sha256"]
    for estimator in (cold, cached):
        bound = sample_designs(name, skeletons={})
        assert digest(estimator.estimate(d) for d in bound) == expected["sha256"]


def _capture() -> None:
    """Train the fixture models and write both golden files."""
    save_estimator(Estimator(MAIA, training_samples=120, seed=7), MODELS)
    estimator = load_estimator(MODELS, MAIA)
    apps = {}
    for name in sorted(APPS):
        designs = list(sample_designs(name))
        apps[name] = {
            "designs": len(designs),
            "sha256": digest(estimator.estimate(d) for d in designs),
        }
    doc = {
        "points_per_app": POINTS_PER_APP,
        "sample_seed": SAMPLE_SEED,
        "apps": apps,
    }
    DIGESTS.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    _capture()
