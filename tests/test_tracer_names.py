"""The names the benchmark's tracer wraps still exist, and it leaves them as it found them.

``perfbench/tracer.py`` patches the sparsekern functions and methods in its
TARGETS at run time; a name deleted from src makes ``Tracer.install`` raise,
and every traced benchmark run with it.
"""

import importlib
import importlib.util
import os
import time

from sparsekern import ProblemVariant, gen_remark1, solver
from sparsekern import experiments as ex

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACER_PATH = os.path.join(ROOT, "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attribute(module_name, attr):
    """The object a TARGETS entry names: a module attribute, or a class's own method."""
    owner = importlib.import_module(f"sparsekern.{module_name}")
    if "." in attr:
        cls_name, attr = attr.split(".")
        return vars(getattr(owner, cls_name))[attr]
    return getattr(owner, attr)


def test_tracer_installs_counts_a_fit_and_restores_every_name():
    tracer_mod = _load_tracer()
    originals = [(module, attr, _attribute(module, attr)) for module, attr, _, _ in tracer_mod.TARGETS]
    tracer = tracer_mod.Tracer()
    config = solver.SolverConfig(**{**ex.REMARK1_CONFIG.to_dict(), "iters": 5})
    t0 = time.perf_counter()
    try:
        tracer.install()
        state, _ = solver.fit(
            gen_remark1(20, 0), ex.REMARK1_KERNEL, ex.REMARK1_LOSS, ProblemVariant.fixed_width(1.0), config
        )
    finally:
        tracer.uninstall()
    wall = time.perf_counter() - t0
    layers, errors = tracer.layer_metrics(wall)
    assert errors == []
    assert layers["solver.fit.calls"] == 1
    assert layers["solver.fit.iters"] == state.t
    for module, attr, original in originals:
        assert _attribute(module, attr) is original, f"{module}.{attr}"
