"""MaxJ-vs-IR consistency: the generated MaxJ describes the design it
was generated from, for every Table II app."""

import pytest

from repro.apps import all_benchmarks
from repro.codegen import generate_maxj
from repro.ir.memories import BRAM


@pytest.fixture(scope="module", params=[b.name for b in all_benchmarks()])
def design(request):
    from repro.apps import get_benchmark

    bench = get_benchmark(request.param)
    ds = bench.small_dataset()
    return bench.build(ds, **bench.default_params(ds))


class TestBackendAgreement:
    def test_same_offchip_interfaces(self, design):
        maxj = generate_maxj(design)
        for mem in design.offchip_mems:
            assert mem.name in maxj

    def test_same_bram_count(self, design):
        maxj = generate_maxj(design)
        brams = [m for m in design.onchip_mems() if isinstance(m, BRAM)]
        assert maxj.count("mem.alloc") == len(brams)

    def test_double_buffer_annotation(self, design):
        """Double buffering is a DHDL schedule concept the MaxJ carries."""
        maxj = generate_maxj(design)
        has_double = any(
            m.double_buffered
            for m in design.onchip_mems()
            if isinstance(m, BRAM)
        )
        assert ("double-buffered" in maxj) == has_double
