"""Executor-queue dispatch: utilization gauges and micro-shard resume.

With more shards than workers, idle workers take the next shard from the
executor's queue. Its observable behaviour is the per-worker utilization
gauges; its crash story is that a sweep killed mid-write resumes to the
exact serial point set, including when the kill tears a JSONL line in
half.
"""

import pytest

from repro import obs
from repro.apps import get_benchmark
from repro.dse import explore

POINTS = 48
SEED = 5


@pytest.fixture()
def bench():
    return get_benchmark("tpchq6")


@pytest.fixture(scope="module")
def serial(estimator):
    bench = get_benchmark("tpchq6")
    return explore(bench, estimator, max_points=POINTS, seed=SEED)


def fingerprint(result):
    return [(p.params, p.cycles, p.alms) for p in result.points]


class TestStealAccounting:
    """Idle workers pull queued shards; each worker's busy share shows."""

    def test_utilization_gauges_recorded(self, estimator, bench):
        obs.reset()
        obs.enable(metrics=True)
        try:
            explore(bench, estimator, max_points=POINTS, seed=SEED,
                    shards=7, workers=2)
            doc = obs.metrics().to_dict()
        finally:
            obs.disable()
            obs.reset()
        gauges = doc["gauges"]
        active = int(gauges["dse.workers.active"])
        assert 1 <= active <= 2
        for slot in range(active):
            utilization = gauges[f"dse.worker.{slot}.utilization"]
            assert 0.0 <= utilization <= 1.0


class TestSplitShardResume:
    """Kill/resume round-trips with more shards than workers."""

    def test_torn_tail_under_micro_sharding(
        self, estimator, bench, serial, tmp_path
    ):
        """A kill mid-write leaves a half-written line and a short file."""
        ckpt = tmp_path / "ckpt"
        first = explore(bench, estimator, max_points=POINTS, seed=SEED,
                        shards=7, workers=2, checkpoint_dir=ckpt)
        assert first.shards == 7
        shard_files = sorted(ckpt.glob("shard-*.jsonl"))
        assert len(shard_files) == first.shards
        # Tear one file mid-line and truncate another to half its records.
        torn = shard_files[1].read_text()
        shard_files[1].write_text(torn[:-40])
        partial = shard_files[2].read_text().splitlines()
        shard_files[2].write_text(
            "\n".join(partial[: len(partial) // 2]) + "\n"
        )

        resumed = explore(bench, estimator, max_points=POINTS, seed=SEED,
                          shards=7, workers=2,
                          checkpoint_dir=ckpt, resume=True)
        assert fingerprint(resumed) == fingerprint(serial)
        assert 0 < resumed.restored < POINTS
