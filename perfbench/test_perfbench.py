"""Checks of the benchmark itself: mirrors, certificate oracle, tracer, exit code.

Run from the root of a checkout:  python3 -m pytest -q perfbench
(about a minute: the remark1 and pii_full mirrors each run twice).
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from certificate import certificate  # noqa: E402
from sparsekern import experiments, solver  # noqa: E402
from sparsekern.dual_field import AlphaField, ProblemVariant, Quadrature  # noqa: E402
from sparsekern.losses import Loss  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def remark1_seed0(tmp_path_factory):
    inp = workloads.remark1_inputs(0, str(tmp_path_factory.mktemp("remark1")))
    out = workloads.remark1_pipeline(inp)
    return inp, out, workloads.remark1_assess(inp, out)


def test_remark1_mirror_equals_the_study(remark1_seed0):
    _, _, q = remark1_seed0
    study = experiments.run_experiment("remark1", seed=0).summary
    assert q["errors"] == []
    assert q["kernel_count"] == study["kernel_count"]
    assert q["test_mse"] == study["test_mse"]
    assert q["center_error"] == study["center_error"]


def test_pii_full_mirror_equals_rep0(tmp_path):
    inp = workloads.pii_full_inputs(0, str(tmp_path))
    q = workloads.pii_full_assess(inp, workloads.pii_full_pipeline(inp))
    rep = experiments._pii_full_rep(("desk", 0, 0))
    assert q["errors"] == []
    assert q["test_mse"] == rep["mse"]
    assert q["kernel_count"] == rep["kernels"]


def test_oracle_agrees_with_the_solver_on_remark1(remark1_seed0):
    inp, out, q = remark1_seed0
    cfg = experiments.REMARK1_CONFIG
    quad = Quadrature(cfg.center_nodes, cfg.width_nodes)
    problem = solver.Problem(
        inp.train, experiments.REMARK1_KERNEL, experiments.REMARK1_LOSS,
        ProblemVariant.fixed_width(1.0), cfg.gamma,
    )
    g_solver = solver.dual_objective(out["state"], problem, quad)
    # mu maximised out: never below the solver's g at the same lambda
    assert q["dual"] >= g_solver
    assert q["dual"] - g_solver < 0.05
    assert q["primal"] == pytest.approx(solver.primal_objective(out["field"], quad), rel=1e-12)
    assert q["rel_gap"] == pytest.approx(abs(q["primal"] - q["dual"]) / max(1.0, abs(q["primal"])))


def test_oracle_at_zero_multipliers():
    data = workloads.remark1_inputs(3, "").train
    field = AlphaField(
        samples=data, lam=np.zeros(data.n), gamma=0.2,
        kernel=experiments.REMARK1_KERNEL, variant=ProblemVariant.fixed_width(1.0),
    )
    loss = Loss("quadratic_eps", 1e-3, 10.0)
    cert = certificate(field, loss, 64, 4)
    # g(0) = 0 and alpha = 0, so P = 0 and yhat = 0
    assert cert["dual"] == 0.0
    assert cert["primal"] == 0.0
    assert cert["max_c"] == pytest.approx(float(np.max(data.y**2)) - 1e-3)
    assert cert["max_violation"] == cert["max_c"]


def test_tracer_restores_originals_and_accounts_self_time():
    import sparsekern.kernels
    import sparsekern.models

    cross = sparsekern.kernels.cross
    load = vars(sparsekern.models.DiscreteModel)["load"]
    tracer = Tracer()
    tracer.install()
    try:
        assert sparsekern.kernels.cross is not cross
        inp = workloads.remark1_inputs(0, "")
        cfg = experiments.REMARK1_CONFIG
        small = solver.SolverConfig(**{**cfg.to_dict(), "iters": 50})
        solver.fit(
            inp.train, experiments.REMARK1_KERNEL, experiments.REMARK1_LOSS,
            ProblemVariant.fixed_width(1.0), small,
        )
    finally:
        tracer.uninstall()
    assert sparsekern.kernels.cross is cross
    assert vars(sparsekern.models.DiscreteModel)["load"] is load
    layers, errors = tracer.layer_metrics(tracer.top_level_s + 0.5)
    assert errors == []
    assert layers["solver.fit.iters"] == 50
    assert layers["losses.inner_minimize.calls"] == 51
    assert layers["kernels.cross.calls"] == 1
    assert layers["kernels.cross.entries"] == 20 * 1024
    assert layers["solver.fit.matvec_flops_computed"] == 4 * 20 * 1024 * 50
    assert layers["trace.untraced_s"] == pytest.approx(0.5)


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "remark1", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    with pytest.raises(json.JSONDecodeError):
        json.loads(last[0])
