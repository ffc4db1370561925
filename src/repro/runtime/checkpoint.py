"""Per-shard JSONL checkpoints with kill/resume semantics.

A checkpointed explore writes one ``shard-NNNN.jsonl`` file per shard
plus a ``manifest.json`` describing the run (benchmark, dataset, seed,
budget, shard count). Shard files are append-only: each estimated point
becomes one JSON line carrying its global index, parameters, and the
full estimate, flushed every ``FLUSH_EVERY`` points so a killed sweep
loses at most that many estimates. A terminal ``done`` line marks the
shard complete.

Resume (``explore(..., resume=True)`` / ``repro explore --resume DIR``)
validates the manifest against the requested run — resuming a different
benchmark/seed/budget/shard-count is a :class:`CheckpointError`, not a
silent wrong answer — then loads every readable record. Complete shards
are never re-estimated; partial shards re-estimate only their missing
global indices and append to the same file. JSON round-trips floats
exactly (shortest-repr), so a resumed Pareto front is byte-identical to
an uninterrupted run's.

The manifest always describes the *global* run (full shard partition and
point count), even when the writing plan covers only a shard range: N
hosts sweeping disjoint ``--shard-range`` subsets into one directory all
write/validate the same manifest, and each additionally drops a
host-tagged sidecar (``host-<lo>-<hi>.json``) recording which range it
owned. ``repro merge-checkpoints`` reads the manifest back, re-plans the
full partition, and merges every shard file under the Conservation
ledger — the multi-host merge protocol (see ``docs/runtime.md``).
"""

from __future__ import annotations

import json
import os
import platform
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, IO, List, Optional, Tuple, Union

from ..estimation.area import AreaEstimate
from ..estimation.counts import Counts
from ..estimation.estimator import Estimate
from ..target.board import Board
from .sharding import Shard, ShardPlan

MANIFEST_NAME = "manifest.json"

#: Flush shard files after this many newly written records.
FLUSH_EVERY = 100


class CheckpointError(RuntimeError):
    """A checkpoint directory cannot be used for the requested run."""


@dataclass
class PointRecord:
    """One explored point: global index, parameters, outcome.

    ``estimate`` is ``None`` for points whose build raised an
    :class:`~repro.ir.node.IRError` (structurally illegal points the
    space's legality predicates cannot express). ``restored`` marks
    records loaded from a checkpoint rather than estimated this run.
    """

    index: int
    params: Dict[str, object]
    estimate: Optional[Estimate]
    latency_s: float = 0.0
    restored: bool = False

    @property
    def illegal(self) -> bool:
        """True when the point's design build failed a structural rule."""
        return self.estimate is None


def estimate_to_doc(est: Estimate) -> Dict[str, object]:
    """Serialize an :class:`Estimate` to a JSON-safe dict (lossless)."""
    a = est.area
    return {
        "design": est.design_name,
        "cycles": est.cycles,
        "seconds": est.seconds,
        "area": {
            "alms": a.alms,
            "dsps": a.dsps,
            "brams": a.brams,
            "regs": a.regs,
            "routing_luts": a.routing_luts,
            "duplicated_regs": a.duplicated_regs,
            "duplicated_brams": a.duplicated_brams,
            "unavailable_luts": a.unavailable_luts,
            "raw": {
                "luts_packable": a.raw.luts_packable,
                "luts_unpackable": a.raw.luts_unpackable,
                "regs": a.raw.regs,
                "dsps": a.raw.dsps,
                "brams": a.raw.brams,
            },
        },
    }


def estimate_from_doc(doc: Dict[str, object], board: Board) -> Estimate:
    """Rebuild an :class:`Estimate` written by :func:`estimate_to_doc`.

    The board is not serialized (it is run configuration, not data);
    the caller supplies the estimator's board.
    """
    area = dict(doc["area"])  # type: ignore[arg-type]
    raw = Counts(**area.pop("raw"))
    return Estimate(
        design_name=doc["design"],  # type: ignore[arg-type]
        cycles=doc["cycles"],  # type: ignore[arg-type]
        seconds=doc["seconds"],  # type: ignore[arg-type]
        area=AreaEstimate(raw=raw, **area),
        board=board,
    )


class ShardWriter:
    """Append-only JSONL writer for one shard's checkpoint file."""

    def __init__(self, path: Union[str, Path], append: bool = False) -> None:
        self.path = Path(path)
        self._fh: Optional[IO[str]] = open(
            self.path, "a" if append else "w"
        )
        self._pending = 0
        self.written = 0

    def write(self, record: PointRecord) -> None:
        """Append one point record (flushed every ``FLUSH_EVERY`` writes)."""
        assert self._fh is not None, "writer already closed"
        doc = {
            "t": "p",
            "i": record.index,
            "params": record.params,
            "lat": record.latency_s,
            "est": None if record.estimate is None
            else estimate_to_doc(record.estimate),
        }
        self._fh.write(json.dumps(doc) + "\n")
        self.written += 1
        self._pending += 1
        if self._pending >= FLUSH_EVERY:
            self.flush()

    def done(self, shard: Shard) -> None:
        """Write the terminal marker declaring the shard complete."""
        assert self._fh is not None, "writer already closed"
        self._fh.write(
            json.dumps({"t": "done", "shard": shard.index,
                        "points": len(shard)}) + "\n"
        )
        self.flush()

    def flush(self) -> None:
        """Flush buffered lines to the OS so a kill loses little work."""
        if self._fh is not None and self._pending:
            self._fh.flush()
            os.fsync(self._fh.fileno())
        self._pending = 0

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if self._fh is not None:
            self.flush()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "ShardWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class ShardState:
    """What a checkpoint directory already knows about one shard."""

    records: Dict[int, PointRecord] = field(default_factory=dict)
    complete: bool = False


class CheckpointStore:
    """One run's checkpoint directory: manifest plus per-shard files."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)

    def shard_path(self, index: int) -> Path:
        """Path of shard ``index``'s JSONL file."""
        return self.directory / f"shard-{index:04d}.jsonl"

    @property
    def manifest_path(self) -> Path:
        """Path of the run manifest."""
        return self.directory / MANIFEST_NAME

    # -- manifest ----------------------------------------------------------

    def _manifest_doc(
        self, benchmark: str, dataset: Dict[str, int], plan: ShardPlan
    ) -> Dict[str, object]:
        # Always the *global* run: a ranged plan writes the same manifest
        # as every other host of the same split, so any of them (or the
        # merge tool) can validate against it.
        return {
            "schema": 2,
            "benchmark": benchmark,
            "dataset": dict(dataset),
            "seed": plan.seed,
            "max_points": plan.max_points,
            "shards": plan.planned_shards,
            "total_points": plan.global_points,
            "space_cardinality": plan.space_cardinality,
        }

    def _host_tag(self, plan: ShardPlan) -> str:
        lo, hi = plan.shard_range or (0, plan.planned_shards)
        return f"{lo:04d}-{hi:04d}"

    def host_manifest_path(self, plan: ShardPlan) -> Path:
        """Path of the host sidecar for ``plan``'s shard range."""
        return self.directory / f"host-{self._host_tag(plan)}.json"

    def _write_host_manifest(self, plan: ShardPlan) -> None:
        lo, hi = plan.shard_range or (0, plan.planned_shards)
        doc = {
            "schema": 2,
            "host": platform.node() or "local",
            "pid": os.getpid(),
            "shard_range": [lo, hi],
            "shards": [s.index for s in plan.shards],
            "points": plan.total_points,
        }
        self.host_manifest_path(plan).write_text(
            json.dumps(doc, indent=2) + "\n"
        )

    def host_manifests(self) -> List[Dict[str, object]]:
        """All host sidecars in the directory, ordered by shard range."""
        docs = []
        for path in sorted(self.directory.glob("host-*.json")):
            try:
                docs.append(json.loads(path.read_text()))
            except json.JSONDecodeError:
                continue  # a torn sidecar never blocks a merge
        return docs

    def begin(
        self,
        benchmark: str,
        dataset: Dict[str, int],
        plan: ShardPlan,
        resume: bool,
    ) -> Dict[int, ShardState]:
        """Prepare the directory and return per-shard restored state.

        Fresh runs (``resume=False``) write the manifest and delete stale
        files. A whole-run plan deletes every shard file and host sidecar
        in the directory, so a re-sharded run leaves nothing of the old
        partition behind; a ranged plan deletes only its *own* shard
        files — a host assigned a shard range never clobbers its
        siblings' shard files. When a
        manifest from the same global run already exists (another host
        got there first) it is left in place; a mismatched one is a
        :class:`CheckpointError` rather than a silent overwrite. Resumed
        runs require a matching manifest and load every readable record;
        a trailing half-written line (the kill point) is ignored, not an
        error.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        if resume:
            states = self.load(benchmark, dataset, plan)
            self._write_host_manifest(plan)
            return states
        expected = self._manifest_doc(benchmark, dataset, plan)
        if self.manifest_path.exists():
            mismatched = self._mismatched_keys(expected)
            if mismatched and plan.is_partial:
                raise CheckpointError(
                    f"checkpoint in {self.directory} belongs to a "
                    "different run "
                    f"({self._mismatch_detail(expected, mismatched)}); "
                    "refusing to add this shard range to it"
                )
        if plan.shard_range is None:
            stale = [*self.directory.glob("shard-*.jsonl"),
                     *self.directory.glob("host-*.json")]
        else:
            stale = [self.shard_path(shard.index) for shard in plan.shards]
        for path in stale:
            path.unlink(missing_ok=True)
        self.manifest_path.write_text(
            json.dumps(expected, indent=2) + "\n"
        )
        self._write_host_manifest(plan)
        return {shard.index: ShardState() for shard in plan.shards}

    def _mismatched_keys(self, expected: Dict[str, object]) -> List[str]:
        manifest = json.loads(self.manifest_path.read_text())
        return [
            key for key in expected
            if manifest.get(key) != expected[key]
        ]

    def _mismatch_detail(
        self, expected: Dict[str, object], mismatched: List[str]
    ) -> str:
        manifest = json.loads(self.manifest_path.read_text())
        return ", ".join(
            f"{k}: checkpoint={manifest.get(k)!r} vs run={expected[k]!r}"
            for k in mismatched
        )

    def load(
        self, benchmark: str, dataset: Dict[str, int], plan: ShardPlan
    ) -> Dict[int, ShardState]:
        """Validate the manifest and load ``plan``'s shard states.

        The read path behind both ``--resume`` and ``merge-checkpoints``;
        raises :class:`CheckpointError` on a missing or mismatched
        manifest.
        """
        if not self.manifest_path.exists():
            raise CheckpointError(
                f"no checkpoint manifest in {self.directory} — "
                "was this directory written by 'explore --checkpoint-dir'?"
            )
        expected = self._manifest_doc(benchmark, dataset, plan)
        mismatched = self._mismatched_keys(expected)
        if mismatched:
            raise CheckpointError(
                f"checkpoint in {self.directory} was written by a "
                f"different run "
                f"({self._mismatch_detail(expected, mismatched)}); "
                "refusing to resume"
            )
        states: Dict[int, ShardState] = {}
        for shard in plan.shards:
            states[shard.index] = self._load_shard(shard)
        return states

    def _load_shard(self, shard: Shard) -> ShardState:
        state = ShardState()
        path = self.shard_path(shard.index)
        if not path.exists():
            return state
        valid = set(shard.indices)
        for line in path.read_text().splitlines():
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                break  # half-written tail from a kill; re-estimate from here
            if doc.get("t") == "done":
                state.complete = True
                continue
            if doc.get("t") != "p":
                continue
            index = doc["i"]
            if index not in valid:
                raise CheckpointError(
                    f"{path} contains point index {index}, outside shard "
                    f"{shard.index}'s range [{shard.start}, {shard.stop})"
                )
            state.records[index] = PointRecord(
                index=index,
                params=doc["params"],
                estimate=None if doc["est"] is None
                else doc["est"],  # deserialized lazily by the caller
                latency_s=doc.get("lat", 0.0),
                restored=True,
            )
        if state.complete and len(state.records) != len(shard):
            # A 'done' marker without all records means the file was
            # hand-edited or truncated after completion: re-estimate.
            state.complete = False
        return state

    def hydrate(
        self, states: Dict[int, ShardState], board: Board
    ) -> Dict[int, ShardState]:
        """Turn raw estimate docs in loaded records into Estimate objects."""
        for state in states.values():
            for record in state.records.values():
                if record.estimate is not None and isinstance(
                    record.estimate, dict
                ):
                    record.estimate = estimate_from_doc(
                        record.estimate, board
                    )
        return states

    def writer(self, shard: Shard, append: bool = False) -> ShardWriter:
        """Open the shard's JSONL file for (appending) writes."""
        return ShardWriter(self.shard_path(shard.index), append=append)


def read_manifest(directory: Union[str, Path]) -> Dict[str, object]:
    """Read a checkpoint directory's run manifest.

    The entry point for merge-only tooling (``repro merge-checkpoints``):
    the manifest names the benchmark, dataset, seed, budget, and global
    shard count, which is everything needed to re-plan the partition and
    validate the union of shard files against it.
    """
    manifest_path = Path(directory) / MANIFEST_NAME
    if not manifest_path.exists():
        raise CheckpointError(
            f"no checkpoint manifest in {directory} — was this directory "
            "written by 'explore --checkpoint-dir'?"
        )
    return json.loads(manifest_path.read_text())


def load_summary(directory: Union[str, Path]) -> Dict[str, object]:
    """Quick look at a checkpoint directory: manifest + per-shard progress.

    Used by tooling/tests; does not validate against any plan.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise CheckpointError(f"no checkpoint manifest in {directory}")
    manifest = json.loads(manifest_path.read_text())
    shards: List[Tuple[str, int, bool]] = []
    for path in sorted(directory.glob("shard-*.jsonl")):
        points = 0
        complete = False
        for line in path.read_text().splitlines():
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                break
            if doc.get("t") == "p":
                points += 1
            elif doc.get("t") == "done":
                complete = True
        shards.append((path.name, points, complete))
    return {"manifest": manifest, "shards": shards}
