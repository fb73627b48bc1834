"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces public functions and methods of the sparsekern
modules with timing wrappers at run time; no source file changes, and
``uninstall`` puts the originals back.  Names that a module imported with
``from ... import`` are patched in the importing module too, under the same
span name.  Spans are aggregated in memory per name (calls, total time, self
time = total minus the time of child spans) and read out once per pipeline.
"""

from __future__ import annotations

import functools
import importlib
import math
import time


def _fit_counters(args, kwargs, result):
    """solver.fit: iterations and the flops of the two N x G matvecs per step."""
    samples, kernel, _, variant, config = args[:5]
    if config.integrator == "monte_carlo":
        nodes = config.batch
    elif variant.kind == "fixed_centers":
        nodes = len(variant.centers) * config.width_nodes
    else:
        widths = 1 if variant.kind == "fixed_width" else config.width_nodes
        nodes = config.center_nodes**kernel.dim * widths
    iters = result[0].t
    return {"iters": iters, "matvec_flops_computed": 4 * samples.n * nodes * iters}


def _cross_counters(args, kwargs, result):
    arrays = result if isinstance(result, tuple) else (result,)
    return {"entries": arrays[0].size, "bytes_computed": sum(a.nbytes for a in arrays)}


def _peak_counters(args, kwargs, result):
    return {"peaks": len(result)}


# (module, attribute, span name, counter hook); a dotted attribute is a method
TARGETS = [
    ("solver", "fit", "solver.fit", _fit_counters),
    ("losses", "inner_minimize", "losses.inner_minimize", None),
    ("losses", "value", "losses.value", None),
    ("kernels", "cross", "kernels.cross", _cross_counters),
    ("dual_field", "quadrature_nodes", "dual_field.quadrature_nodes", None),
    ("solver", "quadrature_nodes", "dual_field.quadrature_nodes", None),
    ("extraction", "quadrature_nodes", "dual_field.quadrature_nodes", None),
    ("dual_field", "monte_carlo_nodes", "dual_field.monte_carlo_nodes", None),
    ("solver", "monte_carlo_nodes", "dual_field.monte_carlo_nodes", None),
    ("dual_field", "AlphaField.predict_batch", "dual_field.AlphaField.predict_batch", None),
    ("dual_field", "AlphaField.save", "models.io", None),
    ("dual_field", "AlphaField.load", "models.io", None),
    ("extraction", "find_peaks", "extraction.find_peaks", _peak_counters),
    ("extraction", "refit_amplitudes", "extraction.refit_amplitudes", None),
    ("extraction", "polish_model", "extraction.polish_model", None),
    ("baselines", "ridge_fit", "baselines.ridge_fit", None),
    ("models", "DiscreteModel.predict_batch", "models.DiscreteModel.predict_batch", None),
    ("models", "DiscreteModel.save", "models.io", None),
    ("models", "DiscreteModel.load", "models.io", None),
    ("datasets", "load_csv", "datasets.load_csv", None),
    ("cli", "cmd_fit", "cli.cmd_fit", None),
    ("cli", "cmd_eval", "cli.cmd_eval", None),
]


class Tracer:
    def __init__(self):
        self._saved = []
        # child time accumulated by each open span
        self._stack = []
        self.reset()

    def reset(self) -> None:
        # name -> {"calls", "total_s", "self_s", counters...}
        self.stats = {}
        self.top_level_s = 0.0
        self._stack.clear()

    def _wrap(self, name, fn, hook):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                else:
                    self.top_level_s += dt
                s = self.stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                s["calls"] += 1
                s["total_s"] += dt
                s["self_s"] += dt - child
            if hook is not None:
                for key, val in hook(args, kwargs, return_value).items():
                    s[key] = s.get(key, 0) + val
            return return_value

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, hook in TARGETS:
            owner = importlib.import_module(f"sparsekern.{module_name}")
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(name, original.__func__, hook))
                else:
                    wrapped = self._wrap(name, original, hook)
            else:
                original = getattr(owner, attr)
                wrapped = self._wrap(name, original, hook)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_metrics(self, wall_s: float) -> tuple[dict, list]:
        """Per-layer metrics of one traced pipeline, and failed trace checks."""
        def get(name, key):
            return self.stats.get(name, {}).get(key, 0)

        out = {}
        for name in sorted({t[2] for t in TARGETS}):
            out[f"{name}.calls"] = get(name, "calls")
            out[f"{name}.self_s"] = get(name, "self_s")
        for key in ("entries", "bytes_computed"):
            out[f"kernels.cross.{key}"] = get("kernels.cross", key)
        out["extraction.find_peaks.peaks"] = get("extraction.find_peaks", "peaks")
        iters = get("solver.fit", "iters")
        out["solver.fit.iters"] = iters
        out["solver.fit.matvec_flops_computed"] = get("solver.fit", "matvec_flops_computed")
        out["solver.fit.us_per_iter"] = 1e6 * get("solver.fit", "total_s") / iters if iters else 0.0
        out["trace.untraced_s"] = wall_s - self.top_level_s

        errors = []
        self_sum = sum(s["self_s"] for s in self.stats.values())
        if not math.isclose(self_sum + out["trace.untraced_s"], wall_s, rel_tol=1e-9, abs_tol=1e-9):
            errors.append(f"self times {self_sum} + untraced {out['trace.untraced_s']} != wall {wall_s}")
        if out["trace.untraced_s"] < 0 or min((s["self_s"] for s in self.stats.values()), default=0) < -1e-9:
            errors.append("negative self or untraced time")
        return out, errors
