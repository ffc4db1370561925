"""Hardware generation backend: MaxJ (paper Figure 1, step 5)."""

from .maxj import MaxJGenerator, generate_maxj

__all__ = ["MaxJGenerator", "generate_maxj"]
