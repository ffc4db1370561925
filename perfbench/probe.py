"""Set-up probe: one fresh interpreter from import to a trained estimator.

``run.py`` starts this script several times per run and times each start
from outside (process launch to the JSON line below), which gives
``setup_s``. The probe itself reports the split into import,
template characterization and correction training, the per-layer
``setup.*`` metrics. It needs ``src`` on ``PYTHONPATH``.
"""

import json
import resource
import time

t0 = time.perf_counter()
import inspect  # noqa: E402

from repro.estimation import (  # noqa: E402
    Estimator,
    characterize_templates,
    train_corrections,
)
from repro.target import MAIA  # noqa: E402

t1 = time.perf_counter()
defaults = inspect.signature(Estimator).parameters
templates = characterize_templates(MAIA.device)
t2 = time.perf_counter()
corrections = train_corrections(
    templates, MAIA,
    n_samples=defaults["training_samples"].default,
    seed=defaults["seed"].default,
)
Estimator(MAIA, templates=templates, corrections=corrections)
t3 = time.perf_counter()
print(json.dumps({
    "import_s": t1 - t0,
    "characterize_s": t2 - t1,
    "train_s": t3 - t2,
    "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}), flush=True)
