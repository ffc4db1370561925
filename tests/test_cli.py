"""Tests for the command-line interface."""

import io
import json

import pytest

from repro import obs
from repro.cli import _parse_overrides, main


def run_cli(estimator, *argv):
    out = io.StringIO()
    code = main(list(argv), out=out, estimator=estimator)
    return code, out.getvalue()


class TestList:
    def test_lists_all_benchmarks(self, estimator):
        code, text = run_cli(estimator, "list")
        assert code == 0
        for name in ("dotproduct", "gemm", "blackscholes", "kmeans"):
            assert name in text

    def test_dataset_sizes_shown(self, estimator):
        _, text = run_cli(estimator, "list")
        assert "187,200,000" in text


class TestEstimate:
    def test_default_point(self, estimator):
        code, text = run_cli(estimator, "estimate", "tpchq6")
        assert code == 0
        assert "cycles" in text and "ALMs" in text and "fits   : True" in text

    def test_parameter_override(self, estimator):
        _, base = run_cli(estimator, "estimate", "tpchq6")
        _, wide = run_cli(estimator, "estimate", "tpchq6", "--set", "par=32")
        assert "'par': 32" in wide
        assert base != wide

    def test_bool_override(self, estimator):
        _, text = run_cli(
            estimator, "estimate", "tpchq6", "--set", "metapipe=false"
        )
        assert "'metapipe': False" in text

    def test_unknown_parameter_rejected(self, estimator):
        with pytest.raises(SystemExit, match="unknown parameters"):
            run_cli(estimator, "estimate", "tpchq6", "--set", "bogus=1")

    def test_malformed_override_rejected(self, estimator):
        with pytest.raises(SystemExit, match="key=value"):
            run_cli(estimator, "estimate", "tpchq6", "--set", "par")


class TestParseOverrides:
    def test_non_numeric_value_is_friendly_error_naming_key(self):
        with pytest.raises(SystemExit, match="--set tile"):
            _parse_overrides(["tile=abc"])

    def test_int_bool_and_float_values(self):
        assert _parse_overrides(["a=4", "b=true", "c=1.5"]) == {
            "a": 4, "b": True, "c": 1.5
        }

    def test_whole_float_coerces_for_integer_parameter(self, estimator):
        _, text = run_cli(
            estimator, "estimate", "tpchq6", "--set", "par=16.0"
        )
        assert "'par': 16" in text

    def test_fractional_float_for_integer_parameter_rejected(
        self, estimator
    ):
        with pytest.raises(SystemExit, match="--set par.*expects an integer"):
            run_cli(estimator, "estimate", "tpchq6", "--set", "par=4.5")


class TestExplore:
    def test_prints_pareto(self, estimator):
        code, text = run_cli(
            estimator, "explore", "tpchq6", "--points", "40", "--seed", "2"
        )
        assert code == 0
        assert "Pareto-optimal" in text
        assert "params" in text

    def test_csv_dump(self, estimator, tmp_path):
        csv_path = tmp_path / "points.csv"
        code, text = run_cli(
            estimator, "explore", "tpchq6", "--points", "20",
            "--csv", str(csv_path),
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("cycles,alms,dsps,brams,valid")
        assert len(lines) == 21


class TestSpeedup:
    def test_reports_speedup(self, estimator):
        code, text = run_cli(
            estimator, "speedup", "tpchq6", "--points", "40"
        )
        assert code == 0
        assert "speedup" in text and "x" in text


class TestCodegen:
    def test_stdout(self, estimator):
        code, text = run_cli(estimator, "codegen", "tpchq6")
        assert code == 0
        assert "extends Kernel" in text

    def test_file_output(self, estimator, tmp_path):
        path = tmp_path / "kernel.maxj"
        code, text = run_cli(
            estimator, "codegen", "tpchq6", "-o", str(path)
        )
        assert code == 0
        assert "extends Kernel" in path.read_text()


class TestPower:
    def test_reports_power_and_energy(self, estimator):
        code, text = run_cli(estimator, "power", "tpchq6")
        assert code == 0
        assert "total power" in text
        assert "energy/run" in text


class TestObservabilityFlags:
    def test_estimate_trace_writes_chrome_trace(self, estimator, tmp_path):
        trace = tmp_path / "trace.json"
        code, text = run_cli(
            estimator, "estimate", "tpchq6", "--trace", str(trace)
        )
        assert code == 0
        assert f"wrote" in text and str(trace) in text
        doc = json.loads(trace.read_text())
        names = {
            e["name"] for e in doc["traceEvents"] if e["ph"] == "X"
        }
        assert {"estimate", "cycles", "area"} <= names

    def test_explore_trace_has_nested_pipeline_spans(
        self, estimator, tmp_path
    ):
        # The cached estimator estimates in batches: explore nests
        # estimate.batch blocks with per-design cycles/area.raw passes.
        estimator.caches.clear()
        trace = tmp_path / "trace.json"
        code, _ = run_cli(
            estimator, "explore", "tpchq6", "--points", "15",
            "--trace", str(trace),
        )
        assert code == 0
        doc = json.loads(trace.read_text())
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in spans}
        assert {"explore", "estimate.batch", "cycles", "area.raw"} <= names
        explore_span = next(e for e in spans if e["name"] == "explore")
        est = next(e for e in spans if e["name"] == "estimate.batch")
        assert explore_span["ts"] <= est["ts"]
        assert (est["ts"] + est["dur"]
                <= explore_span["ts"] + explore_span["dur"] + 1e-6)

    def test_explore_no_cache_traces_per_point_estimates(
        self, estimator, tmp_path
    ):
        """--no-cache keeps the per-point hot path and its trace shape."""
        from repro.estimation import Estimator

        cold = Estimator(
            estimator.board, templates=estimator.templates,
            corrections=estimator.corrections, cache=False,
        )
        trace = tmp_path / "trace.json"
        code, _ = run_cli(
            cold, "explore", "tpchq6", "--points", "15", "--no-cache",
            "--trace", str(trace),
        )
        assert code == 0
        doc = json.loads(trace.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"explore", "estimate", "cycles", "area"} <= names
        assert "estimate.batch" not in names

    def test_explore_metrics_prints_counters_and_histogram(
        self, estimator
    ):
        code, text = run_cli(
            estimator, "explore", "tpchq6", "--points", "15", "--metrics"
        )
        assert code == 0
        assert "dse.points.sampled" in text
        assert "dse.points.valid" in text
        assert "dse.point_latency_s" in text
        assert "p95" in text

    def test_estimate_metrics_summary(self, estimator):
        code, text = run_cli(
            estimator, "estimate", "tpchq6", "--metrics"
        )
        assert code == 0
        assert "estimate.calls" in text
        assert "pass.cycles_s" in text and "pass.area_s" in text

    def test_codegen_trace_and_metrics(self, estimator, tmp_path):
        trace = tmp_path / "trace.json"
        code, text = run_cli(
            estimator, "codegen", "tpchq6",
            "-o", str(tmp_path / "k.maxj"),
            "--trace", str(trace), "--metrics",
        )
        assert code == 0
        assert "codegen.lines" in text
        doc = json.loads(trace.read_text())
        assert any(
            e["name"] == "codegen" for e in doc["traceEvents"]
        )

    def test_flags_leave_observability_off_afterwards(
        self, estimator, tmp_path
    ):
        run_cli(
            estimator, "estimate", "tpchq6",
            "--trace", str(tmp_path / "t.json"), "--metrics",
        )
        assert not obs.trace_enabled() and not obs.metrics_enabled()

    def test_without_flags_nothing_is_recorded(self, estimator):
        obs.reset()
        run_cli(estimator, "estimate", "tpchq6")
        assert obs.tracer().spans == []
        assert not obs.metrics()


class TestBadInputs:
    """Bad CLI input exits 2 with one stderr line, never a traceback."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["explore", "nosuch"],
             "unknown benchmark 'nosuch' (choose from: dotproduct, "),
            (["estimate", "nosuch"], "unknown benchmark 'nosuch'"),
            (["explore", "gda", "--points", "0"],
             "--points: expected a positive integer, got '0'"),
            (["explore", "gda", "--points", "-5"],
             "--points: expected a positive integer, got '-5'"),
            (["report", "--points", "0"], "expected a positive integer"),
        ],
    )
    def test_one_line_usage_error(self, estimator, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            run_cli(estimator, *argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert "Traceback" not in err

    def test_show_one_prints_the_fastest_pareto_point(self, estimator):
        code, text = run_cli(
            estimator, "explore", "gda", "--points", "60", "--show", "1"
        )
        assert code == 0
        rows = text.splitlines()[2:]
        assert len(rows) == 1 and "{" in rows[0]


class TestParallelExploreFlags:
    def test_workers_zero_is_friendly(self, estimator):
        with pytest.raises(SystemExit, match="--workers expects a positive"):
            run_cli(estimator, "explore", "tpchq6", "--workers", "0")

    def test_negative_workers_is_friendly(self, estimator):
        with pytest.raises(SystemExit, match="--workers expects a positive"):
            run_cli(estimator, "explore", "tpchq6", "--workers", "-3")

    def test_negative_shards_is_friendly(self, estimator):
        with pytest.raises(SystemExit, match="--shards expects a positive"):
            run_cli(estimator, "explore", "tpchq6", "--shards", "-1")

    def test_report_workers_validated(self, estimator):
        with pytest.raises(SystemExit, match="--workers expects a positive"):
            run_cli(estimator, "report", "--workers", "0")

    def test_conflicting_resume_and_checkpoint_dir(self, estimator, tmp_path):
        with pytest.raises(SystemExit, match="drop --checkpoint-dir"):
            run_cli(
                estimator, "explore", "tpchq6",
                "--checkpoint-dir", str(tmp_path / "a"),
                "--resume", str(tmp_path / "b"),
            )

    def test_resume_without_checkpoint_is_friendly(self, estimator, tmp_path):
        with pytest.raises(SystemExit, match="no checkpoint manifest"):
            run_cli(
                estimator, "explore", "tpchq6", "--points", "10",
                "--resume", str(tmp_path / "missing"),
            )

    def test_sharded_explore_matches_serial(self, estimator):
        _, serial = run_cli(
            estimator, "explore", "tpchq6", "--points", "30", "--seed", "2"
        )
        code, sharded = run_cli(
            estimator, "explore", "tpchq6", "--points", "30", "--seed", "2",
            "--shards", "3",
        )
        assert code == 0
        assert "3 shards x 1 workers" in sharded
        # Same Pareto table, modulo the engine's summary suffix.
        assert serial.splitlines()[1:] == sharded.splitlines()[1:]

    def test_checkpoint_resume_round_trip(self, estimator, tmp_path):
        ckpt = tmp_path / "ckpt"
        code, _ = run_cli(
            estimator, "explore", "tpchq6", "--points", "20",
            "--shards", "2", "--checkpoint-dir", str(ckpt),
        )
        assert code == 0
        assert (ckpt / "manifest.json").exists()
        code, text = run_cli(
            estimator, "explore", "tpchq6", "--points", "20",
            "--shards", "2", "--resume", str(ckpt),
        )
        assert code == 0
        assert "20 restored from checkpoint" in text


class TestStreamingTraceFlag:
    def test_trace_jsonl_streams_spans(self, estimator, tmp_path):
        estimator.caches.clear()
        stream = tmp_path / "trace.jsonl"
        code, text = run_cli(
            estimator, "explore", "tpchq6", "--points", "10",
            "--trace-jsonl", str(stream),
        )
        assert code == 0
        assert "streamed" in text and str(stream) in text
        docs = [json.loads(l) for l in stream.read_text().splitlines()]
        assert any(d["name"] == "explore" for d in docs)
        assert any(d["name"] == "estimate.batch" for d in docs)

    def test_span_cap_bounds_memory(self, estimator, tmp_path):
        estimator.caches.clear()
        stream = tmp_path / "trace.jsonl"
        code, _ = run_cli(
            estimator, "explore", "tpchq6", "--points", "10",
            "--trace-jsonl", str(stream), "--span-cap", "5",
        )
        assert code == 0
        assert len(obs.tracer().spans) <= 5
        docs = [json.loads(l) for l in stream.read_text().splitlines()]
        assert len(docs) > 5  # the file still has everything
        obs.tracer().span_cap = None
        obs.reset()

    def test_negative_span_cap_is_friendly(self, estimator, tmp_path):
        with pytest.raises(SystemExit, match="--span-cap expects"):
            run_cli(
                estimator, "estimate", "tpchq6",
                "--trace-jsonl", str(tmp_path / "t.jsonl"),
                "--span-cap", "-1",
            )


class TestShardRangeFlags:
    def test_malformed_range_is_friendly(self, estimator):
        with pytest.raises(SystemExit, match="--shard-range expects A:B"):
            run_cli(estimator, "explore", "tpchq6", "--shard-range", "3")

    def test_non_integer_bounds_are_friendly(self, estimator):
        with pytest.raises(SystemExit, match="expects integer bounds"):
            run_cli(estimator, "explore", "tpchq6",
                    "--shard-range", "a:b")

    def test_empty_or_inverted_range_is_friendly(self, estimator):
        for bad in ("2:2", "3:1", "-1:2"):
            with pytest.raises(SystemExit, match="expects 0 <= A < B"):
                # = form so argparse accepts a leading minus sign
                run_cli(estimator, "explore", "tpchq6",
                        f"--shard-range={bad}")

    def test_range_requires_checkpoint_dir(self, estimator):
        with pytest.raises(SystemExit,
                           match="--shard-range requires --checkpoint-dir"):
            run_cli(estimator, "explore", "tpchq6", "--points", "10",
                    "--shards", "4", "--shard-range", "0:2")

    def test_auto_shards_conflicts_with_shards(self, estimator):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            run_cli(estimator, "explore", "tpchq6",
                    "--auto-shards", "--shards", "4")

    def test_auto_shards_micro_shards(self, estimator):
        code, text = run_cli(
            estimator, "explore", "tpchq6", "--points", "24", "--seed", "2",
            "--auto-shards",
        )
        assert code == 0
        assert "shards x 1 workers" in text

    def test_ranged_explore_reports_range(self, estimator, tmp_path):
        ckpt = tmp_path / "ckpt"
        code, text = run_cli(
            estimator, "explore", "tpchq6", "--points", "20", "--seed", "2",
            "--shards", "4", "--shard-range", "0:2",
            "--checkpoint-dir", str(ckpt),
        )
        assert code == 0
        assert "(range 0:2 of 4 shards)" in text
        assert (ckpt / "host-0000-0002.json").exists()


class TestMergeCheckpoints:
    def test_two_ranged_runs_merge_like_serial(self, estimator, tmp_path):
        _, serial = run_cli(
            estimator, "explore", "tpchq6", "--points", "20", "--seed", "2",
        )
        ckpt = tmp_path / "shared"
        for rng in ("0:2", "2:4"):
            code, _ = run_cli(
                estimator, "explore", "tpchq6", "--points", "20",
                "--seed", "2", "--shards", "4", "--shard-range", rng,
                "--checkpoint-dir", str(ckpt),
            )
            assert code == 0
        code, merged = run_cli(estimator, "merge-checkpoints", str(ckpt))
        assert code == 0
        assert "merged 20 points from 4 shards" in merged
        # Identical Pareto table under the summary line.
        assert merged.splitlines()[1:] == serial.splitlines()[1:]

    def test_missing_range_fails_loudly(self, estimator, tmp_path):
        ckpt = tmp_path / "partial"
        run_cli(
            estimator, "explore", "tpchq6", "--points", "20", "--seed", "2",
            "--shards", "4", "--shard-range", "0:2",
            "--checkpoint-dir", str(ckpt),
        )
        with pytest.raises(SystemExit, match="[Cc]onservation|planned"):
            run_cli(estimator, "merge-checkpoints", str(ckpt))

    def test_empty_directory_is_friendly(self, estimator, tmp_path):
        with pytest.raises(SystemExit, match="no checkpoint manifest"):
            run_cli(estimator, "merge-checkpoints", str(tmp_path / "none"))


class TestSimTraceFlag:
    def test_speedup_writes_sim_trace(self, estimator, tmp_path):
        dest = tmp_path / "sim.json"
        code, text = run_cli(
            estimator, "speedup", "tpchq6", "--points", "10",
            "--sim-trace", str(dest),
        )
        assert code == 0
        assert "simulated-time slices" in text and str(dest) in text
        doc = json.loads(dest.read_text())
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert slices
        assert all(isinstance(e["args"]["cycles"], (int, float))
                   for e in slices)
