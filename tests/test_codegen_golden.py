"""Golden-file regression test for the MaxJ backend.

The expected output lives in ``tests/golden/``; any intentional generator
change must regenerate it (see the builder function below — it is the
single source of the golden design).
"""

from pathlib import Path

import pytest

from repro.codegen import generate_maxj
from repro.ir import Design, Float32
from repro.ir import builder as hw

GOLDEN_DIR = Path(__file__).parent / "golden"


def golden_design() -> Design:
    """The fixed reference design the golden file was generated from."""
    with Design("golden") as d:
        a = hw.offchip("a", Float32, 64)
        out = hw.arg_out("out", Float32)
        with hw.sequential("top"):
            with hw.metapipe(
                "tiles", [(64, 16)], accum=("add", out)
            ) as tiles:
                (i,) = tiles.iters
                buf = hw.bram("buf", Float32, 16)
                hw.tile_load(a, buf, (i,), (16,), par=4, name="load")
                acc = hw.reg("acc", Float32)
                with hw.pipe(
                    "body", [(16, 1)], par=2, accum=("add", acc)
                ) as body:
                    (j,) = body.iters
                    v = buf[j]
                    body.returns(hw.mux(v < 0.0, 0.0, v * v))
                tiles.returns(acc)
    return d


class TestGoldenFiles:
    def test_maxj_matches_golden(self):
        expected = (GOLDEN_DIR / "golden.maxj").read_text()
        assert generate_maxj(golden_design()) == expected

    def test_generation_is_deterministic(self):
        a = generate_maxj(golden_design())
        b = generate_maxj(golden_design())
        assert a == b

    def test_golden_design_functionally_correct(self, rng):
        import numpy as np

        from repro.sim import FunctionalSim

        x = rng.normal(size=64)
        out = FunctionalSim(golden_design()).run({"a": x})
        clipped = np.where(x < 0.0, 0.0, x * x)
        assert out["out"] == pytest.approx(clipped.sum())
