"""Construction-time IR indexes equal the scans they replace.

``Design._register`` maintains each controller's ``stages``,
``body_prims`` and ``local_mems`` and each memory's ``transfers`` as
nodes are created; controllers carry ``body_replication`` and the cycles
pass memoizes ``weighted_transfers``. These properties check every index
against its definition — a filter of ``children``, a scan of
``design.nodes``, or the original recursive formula — over every
registered app at sampled legal parameters.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.apps import all_benchmarks
from repro.apps.extras import all_extras
from repro.estimation.cycles import weighted_transfers
from repro.ir import IRError
from repro.ir.controllers import Controller, MetaPipe, Parallel, Pipe
from repro.ir.graph import replication
from repro.ir.memops import TileTransfer
from repro.ir.memories import OnChipMemory

APPS = {b.name: b for b in all_benchmarks() + all_extras()}


def _replication_by_ancestors(node) -> int:
    factor = 1
    for ctrl in node.ancestors():
        if not isinstance(ctrl, Pipe) and ctrl.par > 1:
            factor *= ctrl.par
    return factor


def _child_controllers(ctrl):
    return [c for c in ctrl.children if isinstance(c, Controller)]


def _weighted_transfers_recursive(ctrl) -> int:
    if isinstance(ctrl, TileTransfer):
        return 1
    total = sum(_weighted_transfers_recursive(c) for c in _child_controllers(ctrl))
    if not isinstance(ctrl, Pipe) and ctrl.par > 1:
        total *= ctrl.par
    return total


def _build(name, seed, small):
    bench = APPS[name]
    dataset = bench.small_dataset() if small else bench.default_dataset()
    points = bench.param_space(dataset).sample(random.Random(seed), 1)
    assume(points)
    try:
        return bench.build(dataset, **points[0])
    except IRError:
        assume(False)


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(
    name=st.sampled_from(sorted(APPS)),
    seed=st.integers(min_value=0, max_value=100_000),
    small=st.booleans(),
)
def test_indexes_match_their_definitions(name, seed, small):
    design = _build(name, seed, small)
    controllers = list(design.controllers())
    for ctrl in controllers:
        assert ctrl.stages == _child_controllers(ctrl)
        assert ctrl.body_prims == [
            c for c in ctrl.children if not isinstance(c, Controller)
        ]
        assert ctrl.local_mems == [
            n for n in design.nodes
            if isinstance(n, OnChipMemory) and n.parent is ctrl
        ]
        assert weighted_transfers(ctrl) == _weighted_transfers_recursive(ctrl)
        if isinstance(ctrl, (MetaPipe, Parallel)):
            # The cycles pass relies on this identity for stage overlap.
            assert weighted_transfers(ctrl) == ctrl.par * sum(
                _weighted_transfers_recursive(c) for c in ctrl.stages
            )
    assert design.top_mems == [
        n for n in design.nodes
        if isinstance(n, OnChipMemory) and n.parent is None
    ]
    for mem in design.onchip_mems():
        assert mem.transfers == [
            n for n in design.nodes
            if isinstance(n, TileTransfer) and n.bram is mem
        ]
    for node in design.nodes:
        assert replication(node) == _replication_by_ancestors(node)
