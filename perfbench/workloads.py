"""The benchmark's workloads, each a pipeline of public sparsekern calls.

BENCHMARK.json lists pii_full and cli_fit; remark1 and cli_fit_mc run by
hand only (README.md says why).  Every workload has three parts:

    make_inputs(seed, workdir)  generate (and for the cli workloads, write)
                                the inputs;
                                counted as set-up time
    pipeline(inputs)            the timed path, from the first program call
                                until the discrete model and its test MSE exist
    assess(inputs, outputs)     untimed: quality, the recomputed certificate
                                and the per-operation correctness checks

remark1 and pii_full mirror ``experiments.run_remark1`` and rep 0 of
``experiments._pii_full_rep`` step for step; ``test_perfbench.py`` checks
that they agree.  The program receives only the generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from certificate import certificate

CLI_N_TRAIN = 300
CLI_N_TEST = 500
CLI_FIT_FLAGS = ["--gamma", "0.2", "--eta-lambda", "1e-3", "--eta-mu", "0.01"]
# cli_fit integrates on a 96 x 32 quadrature, written to a config file; its
# 300 x 3072 K stays in cache, so the two matvecs per iteration dominate
CLI_QUADRATURE = (96, 32)
CLI_QUADRATURE_ITERS = 1000
# cli_fit_mc keeps cmd_fit's defaults: Monte Carlo nodes (batch 64), and the
# 256 x 64 quadrature it reports its violation on
CLI_DEFAULT_QUADRATURE = (256, 64)
CLI_MC_ITERS = 8000
# relative tolerance between an MSE the program prints and the benchmark's own
MSE_RTOL = 1e-6


def own_predict(model, X) -> np.ndarray:
    """sum_j a_j exp(-||x - z_j||^2 / (2 w_j^2)) with exact differences."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d2 = np.sum((X[:, None, :] - model.centers[None, :, :]) ** 2, axis=2)
    return np.exp(-d2 / (2.0 * model.widths[None, :] ** 2)) @ model.amplitudes


def own_mse(model, samples) -> float:
    r = samples.y - own_predict(model, samples.X)
    return float(np.mean(r**2))


def _program_mse(model, samples) -> float:
    r = samples.y - model.predict_batch(samples.X)
    return float(np.mean(r**2))


def _quality(model, test, reported_mse, field, loss, center_nodes, width_nodes) -> dict:
    """Quality, certificate and the failed checks shared by every workload."""
    cert = certificate(field, loss, center_nodes, width_nodes)
    mine = own_mse(model, test)
    errors = []
    if model.n_terms == 0:
        errors.append("empty model")
    values = [reported_mse, mine, cert["dual"], cert["primal"], cert["max_c"]]
    arrays = [model.amplitudes, model.centers, model.widths, field.lam]
    if not (all(math.isfinite(v) for v in values) and all(np.all(np.isfinite(a)) for a in arrays)):
        errors.append("non-finite output")
    elif not math.isclose(reported_mse, mine, rel_tol=MSE_RTOL, abs_tol=1e-15):
        errors.append(f"reported test MSE {reported_mse!r} != recomputed {mine!r}")
    return {
        "kernel_count": model.n_terms,
        "test_mse": reported_mse,
        "rel_gap": cert["rel_gap"],
        "max_violation": cert["max_violation"],
        "dual": cert["dual"],
        "primal": cert["primal"],
        "max_c": cert["max_c"],
        "errors": errors,
    }


@dataclass
class TrainTest:
    train: object
    test: object


# ---------------------------------------------------------------------------
# remark1: N=20, G=1024; per-iteration Python overhead dominates
# ---------------------------------------------------------------------------


def remark1_inputs(seed: int, workdir: str) -> TrainTest:
    from sparsekern import datasets

    return TrainTest(datasets.gen_remark1(20, seed), datasets.gen_remark1(400, seed + 10_000))


def remark1_pipeline(inp: TrainTest) -> dict:
    from sparsekern import baselines, experiments, extraction, solver
    from sparsekern.dual_field import ProblemVariant

    kernel = experiments.REMARK1_KERNEL
    state, field = solver.fit(
        inp.train, kernel, experiments.REMARK1_LOSS, ProblemVariant.fixed_width(1.0),
        experiments.REMARK1_CONFIG,
    )
    peaks = extraction.find_peaks(field, extraction.PeakConfig(grid_centers=128, grid_widths=4))
    model = (
        extraction.refit_amplitudes(peaks, inp.train, kernel)
        if peaks
        else extraction.extract_model(field, inp.train)
    )
    ridge_mse = [
        _program_mse(baselines.ridge_fit(inp.train, kernel, 1.0, reg), inp.test)
        for reg in (1e-8, 1e-6, 1e-4, 1e-2)
    ]
    return {
        "state": state,
        "field": field,
        "peaks": peaks,
        "model": model,
        "test_mse": _program_mse(model, inp.test),
        "ridge_mse": ridge_mse,
    }


def remark1_assess(inp: TrainTest, out: dict) -> dict:
    from sparsekern import experiments

    cfg = experiments.REMARK1_CONFIG
    q = _quality(
        out["model"], inp.test, out["test_mse"], out["field"], experiments.REMARK1_LOSS,
        cfg.center_nodes, cfg.width_nodes,
    )
    peaks = out["peaks"]
    q["center_error"] = (
        float(np.min(np.abs(np.asarray([z[0] for z, _ in peaks]) - 2.5))) if peaks else math.inf
    )
    if not all(math.isfinite(m) for m in out["ridge_mse"]):
        q["errors"].append("non-finite ridge baseline")
    return q


# ---------------------------------------------------------------------------
# pii_full: N=100, G=6144; the two N x G matvecs dominate
# ---------------------------------------------------------------------------


def _mixed_gauss(seed: int, n_train: int, n_test: int) -> TrainTest:
    """A gen_mixed_gauss training set, and held-out points on the same signal."""
    from sparsekern import datasets, experiments

    noise = experiments.MIXED_NOISE_SD
    train, truth = datasets.gen_mixed_gauss(10, 0.453, n_train, noise, seed)
    rng = np.random.default_rng(seed + 500_000)
    Xt = rng.uniform(0.0, 3.0, size=(n_test, 1))
    yt = truth.predict_batch(Xt) + rng.normal(0.0, noise, size=n_test)
    return TrainTest(train, datasets.SampleSet(Xt, yt, train.box))


def pii_full_inputs(seed: int, workdir: str) -> TrainTest:
    return _mixed_gauss(seed, 100, 500)


def _pii_full_loss(train):
    from sparsekern.losses import Loss

    return Loss(
        kind="quadratic_eps", epsilon=1e-3,
        clamp_radius=10.0 * max(1.0, float(np.ptp(train.y))),
    )


def pii_full_pipeline(inp: TrainTest) -> dict:
    from sparsekern import experiments, extraction, solver
    from sparsekern.dual_field import ProblemVariant

    kernel = experiments.MIXED_KERNEL
    state, field = solver.fit(
        inp.train, kernel, _pii_full_loss(inp.train), ProblemVariant.full(),
        experiments.PII_FULL_CONFIG,
    )
    model = extraction.extract_model(
        field, inp.train, extraction.PeakConfig(grid_centers=96, grid_widths=32, merge_radius=0.1)
    )
    model = extraction.polish_model(
        model, inp.train, kernel, steps=experiments.PII_FULL_POLISH_STEPS, refine_widths=True
    )
    return {"state": state, "field": field, "model": model, "test_mse": _program_mse(model, inp.test)}


def pii_full_assess(inp: TrainTest, out: dict) -> dict:
    from sparsekern import experiments

    cfg = experiments.PII_FULL_CONFIG
    return _quality(
        out["model"], inp.test, out["test_mse"], out["field"], _pii_full_loss(inp.train),
        cfg.center_nodes, cfg.width_nodes,
    )


# ---------------------------------------------------------------------------
# cli_fit: the user path, sparsekern fit + eval in process; cli_fit_mc: the
# same with cmd_fit's Monte Carlo default, which rebuilds kernels.cross on
# fresh nodes every iteration
# ---------------------------------------------------------------------------


@dataclass
class CliInputs:
    train_csv: str
    test_csv: str
    model_json: str
    test: object
    fit_argv: list
    quadrature: tuple


def _cli_inputs(seed: int, workdir: str, fit_argv: list, quadrature: tuple) -> CliInputs:
    from sparsekern import datasets

    data = _mixed_gauss(seed, CLI_N_TRAIN, CLI_N_TEST)
    paths = [os.path.join(workdir, f"{name}-{seed}") for name in ("train.csv", "test.csv", "model.json")]
    datasets.save_csv(data.train, paths[0])
    datasets.save_csv(data.test, paths[1])
    argv = ["fit", paths[0], *CLI_FIT_FLAGS, *fit_argv, "--out", paths[2]]
    return CliInputs(*paths, data.test, argv, quadrature)


def cli_fit_inputs(seed: int, workdir: str) -> CliInputs:
    config = os.path.join(workdir, f"config.json-{seed}")
    center_nodes, width_nodes = CLI_QUADRATURE
    with open(config, "w") as fh:
        json.dump({"solver": {"center_nodes": center_nodes, "width_nodes": width_nodes}}, fh)
    argv = ["--config", config, "--integrator", "quadrature", "--iters", str(CLI_QUADRATURE_ITERS)]
    return _cli_inputs(seed, workdir, argv, CLI_QUADRATURE)


def cli_fit_mc_inputs(seed: int, workdir: str) -> CliInputs:
    return _cli_inputs(seed, workdir, ["--iters", str(CLI_MC_ITERS)], CLI_DEFAULT_QUADRATURE)


def _cli(argv) -> tuple[int, str]:
    from sparsekern import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def cli_fit_pipeline(inp: CliInputs) -> dict:
    fit_code, fit_out = _cli(inp.fit_argv)
    if fit_code != 0:
        return {"fit_code": fit_code, "fit_out": fit_out}
    eval_code, eval_out = _cli(["eval", inp.model_json, inp.test_csv])
    return {"fit_code": fit_code, "fit_out": fit_out, "eval_code": eval_code, "eval_out": eval_out}


def _printed(text: str, key: str | None = None) -> float:
    """The value the CLI printed: on the ``key: value`` line, else the last line."""
    lines = text.strip().splitlines()
    if key is None:
        return float(lines[-1])
    return float(next(line.split(":", 1)[1] for line in lines if line.startswith(key + ":")))


def cli_fit_assess(inp: CliInputs, out: dict) -> dict:
    from sparsekern import losses
    from sparsekern.dual_field import AlphaField
    from sparsekern.models import DiscreteModel

    for step in ("fit", "eval"):
        code = out.get(f"{step}_code")
        if code != 0:
            return {"errors": [f"sparsekern {step} exited with code {code}"]}
    model = DiscreteModel.load(inp.model_json)
    field = AlphaField.load(inp.model_json + ".field.json")
    loss = losses.default_loss("quadratic_eps", field.samples.y)
    q = _quality(
        model, inp.test, _printed(out["eval_out"]), field, loss, *inp.quadrature
    )
    if _printed(out["fit_out"], "terms") != model.n_terms:
        q["errors"].append("fit printed a term count other than the saved model's")
    printed_c = _printed(out["fit_out"], "max_constraint_violation")
    if not math.isclose(printed_c, q["max_c"], rel_tol=MSE_RTOL, abs_tol=1e-12):
        q["errors"].append(f"fit printed violation {printed_c!r} != recomputed {q['max_c']!r}")
    return q


WORKLOADS = {
    "remark1": (remark1_inputs, remark1_pipeline, remark1_assess),
    "pii_full": (pii_full_inputs, pii_full_pipeline, pii_full_assess),
    "cli_fit": (cli_fit_inputs, cli_fit_pipeline, cli_fit_assess),
    "cli_fit_mc": (cli_fit_mc_inputs, cli_fit_pipeline, cli_fit_assess),
}
