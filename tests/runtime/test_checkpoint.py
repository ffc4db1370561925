"""Checkpoint/resume: kill round-trips, no re-estimation, conservation."""

import json

import pytest

from repro import obs
from repro.apps import get_benchmark
from repro.dse import explore, merge_checkpoints
from repro.runtime import (
    CheckpointError,
    CheckpointStore,
    estimate_from_doc,
    estimate_to_doc,
    load_summary,
)

POINTS = 40
SEED = 5


@pytest.fixture()
def bench():
    return get_benchmark("tpchq6")


@pytest.fixture()
def serial(estimator, bench):
    return explore(bench, estimator, max_points=POINTS, seed=SEED)


def fingerprint(result):
    return [(p.params, p.cycles, p.alms) for p in result.points]


class TestEstimateRoundTrip:
    def test_lossless_via_json(self, estimator, serial):
        for point in serial.points[:5]:
            doc = json.loads(json.dumps(estimate_to_doc(point.estimate)))
            back = estimate_from_doc(doc, estimator.board)
            assert back.cycles == point.estimate.cycles
            assert back.seconds == point.estimate.seconds
            assert back.alms == point.estimate.alms
            assert back.area == point.estimate.area
            assert back.fits() == point.estimate.fits()


class TestKillResume:
    def test_full_resume_skips_all_estimation(
        self, estimator, bench, serial, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        explore(bench, estimator, max_points=POINTS, seed=SEED,
                shards=4, checkpoint_dir=ckpt)
        obs.reset()
        obs.enable(metrics=True)
        try:
            resumed = explore(bench, estimator, max_points=POINTS,
                              seed=SEED, shards=4, checkpoint_dir=ckpt,
                              resume=True)
            calls = obs.metrics().counter("estimate.calls").value
            restored = obs.metrics().counter("dse.points.restored").value
        finally:
            obs.disable()
            obs.reset()
        assert calls == 0  # completed shards are never re-estimated
        assert restored == POINTS
        assert resumed.restored == POINTS
        assert fingerprint(resumed) == fingerprint(serial)

    def test_killed_mid_sweep_resumes_missing_points_only(
        self, estimator, bench, serial, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        explore(bench, estimator, max_points=POINTS, seed=SEED,
                shards=4, checkpoint_dir=ckpt)
        # Simulate a kill: one shard never ran, another died mid-file
        # (truncated, losing its done marker and its last records), and a
        # third has a half-written final line.
        (ckpt / "shard-0003.jsonl").unlink()
        partial = (ckpt / "shard-0001.jsonl").read_text().splitlines()
        kept = partial[: len(partial) // 2]
        (ckpt / "shard-0001.jsonl").write_text("\n".join(kept) + "\n")
        torn = (ckpt / "shard-0002.jsonl").read_text()
        (ckpt / "shard-0002.jsonl").write_text(torn[:-40])

        resumed = explore(bench, estimator, max_points=POINTS, seed=SEED,
                          shards=4, checkpoint_dir=ckpt, resume=True)
        assert fingerprint(resumed) == fingerprint(serial)
        assert 0 < resumed.restored < POINTS

        # After the resume every shard file is complete again.
        summary = load_summary(ckpt)
        assert all(complete for _, _, complete in summary["shards"])
        assert sum(points for _, points, _ in summary["shards"]) == POINTS

    def test_resume_works_across_worker_counts(
        self, estimator, bench, serial, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        explore(bench, estimator, max_points=POINTS, seed=SEED,
                shards=4, checkpoint_dir=ckpt)
        (ckpt / "shard-0000.jsonl").unlink()
        resumed = explore(bench, estimator, max_points=POINTS, seed=SEED,
                          shards=4, workers=2, checkpoint_dir=ckpt,
                          resume=True)
        assert fingerprint(resumed) == fingerprint(serial)


class TestManifestValidation:
    def test_resume_rejects_different_run(self, estimator, bench, tmp_path):
        ckpt = tmp_path / "ckpt"
        explore(bench, estimator, max_points=POINTS, seed=SEED,
                shards=4, checkpoint_dir=ckpt)
        with pytest.raises(CheckpointError, match="different run"):
            explore(bench, estimator, max_points=POINTS, seed=SEED + 1,
                    shards=4, checkpoint_dir=ckpt, resume=True)
        with pytest.raises(CheckpointError, match="different run"):
            explore(bench, estimator, max_points=POINTS, seed=SEED,
                    shards=2, checkpoint_dir=ckpt, resume=True)

    def test_resume_requires_manifest(self, estimator, bench, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint manifest"):
            explore(bench, estimator, max_points=POINTS, seed=SEED,
                    checkpoint_dir=tmp_path / "empty", resume=True)

    def test_foreign_point_index_rejected(self, estimator, bench, tmp_path):
        ckpt = tmp_path / "ckpt"
        explore(bench, estimator, max_points=POINTS, seed=SEED,
                shards=4, checkpoint_dir=ckpt)
        path = ckpt / "shard-0000.jsonl"
        lines = path.read_text().splitlines()
        doc = json.loads(lines[0])
        doc["i"] = 9999
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(CheckpointError, match="outside shard"):
            explore(bench, estimator, max_points=POINTS, seed=SEED,
                    shards=4, checkpoint_dir=ckpt, resume=True)

    def test_fresh_run_truncates_stale_files(
        self, estimator, bench, serial, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        explore(bench, estimator, max_points=POINTS, seed=SEED,
                shards=4, checkpoint_dir=ckpt)
        again = explore(bench, estimator, max_points=POINTS, seed=SEED,
                        shards=4, checkpoint_dir=ckpt)
        assert again.restored == 0
        assert fingerprint(again) == fingerprint(serial)

    def test_fresh_run_removes_files_of_an_old_partition(
        self, estimator, bench, tmp_path
    ):
        """Re-sharding into a used directory leaves no stale shard or
        host files: the summary and the merge see only the new plan."""
        ckpt = tmp_path / "ckpt"
        explore(bench, estimator, max_points=POINTS, seed=3,
                shards=8, checkpoint_dir=ckpt)
        again = explore(bench, estimator, max_points=POINTS, seed=3,
                        shards=2, checkpoint_dir=ckpt)
        summary = load_summary(ckpt)
        assert summary["manifest"]["shards"] == 2
        assert [name for name, _, _ in summary["shards"]] == [
            "shard-0000.jsonl", "shard-0001.jsonl",
        ]
        hosts = CheckpointStore(ckpt).host_manifests()
        assert [h["shard_range"] for h in hosts] == [[0, 2]]
        obs.reset()
        obs.enable(trace=True)
        try:
            merged = merge_checkpoints(ckpt, estimator)
            (span,) = [s for s in obs.tracer().spans
                       if s.name == "merge_checkpoints"]
        finally:
            obs.disable()
            obs.reset()
        assert span.attrs["hosts"] == 1
        assert fingerprint(merged) == fingerprint(again)


class TestLoadSummary:
    def test_summary_shape(self, estimator, bench, tmp_path):
        ckpt = tmp_path / "ckpt"
        explore(bench, estimator, max_points=POINTS, seed=SEED,
                shards=2, checkpoint_dir=ckpt)
        summary = load_summary(ckpt)
        assert summary["manifest"]["benchmark"] == bench.name
        assert summary["manifest"]["shards"] == 2
        assert len(summary["shards"]) == 2

    def test_summary_requires_manifest(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_summary(tmp_path)


class TestCheckpointStoreUnits:
    def test_writer_append_mode(self, tmp_path, estimator, bench):
        from repro.params import ParamSpace
        from repro.runtime import plan_shards

        space = bench.param_space(bench.default_dataset())
        plan = plan_shards(space, SEED, 8, 2)
        store = CheckpointStore(tmp_path / "c")
        states = store.begin(bench.name, bench.default_dataset(), plan,
                             resume=False)
        assert set(states) == {s.index for s in plan.shards}
        assert isinstance(space, ParamSpace)
