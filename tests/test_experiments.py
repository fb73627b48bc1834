import dataclasses

import numpy as np
import pytest

from sparsekern import experiments, solver

# (paper config, rep function, its first argument tuple at paper scale)
PAPER_REPS = {
    "PII2_CONFIG_PAPER": (experiments._grid_vs_pii2_rep, ("paper", 0, 0)),
    "PII_FULL_CONFIG_PAPER": (experiments._pii_full_rep, ("paper", 0, 0)),
    "KOMP_SPARSITY_CONFIG_PAPER": (experiments._komp_sparsity_rep, ("paper", 0, 0)),
    "SIN_CONFIG_PAPER": (experiments._sample_stability_rep, ("paper", 0, 51)),
}


@pytest.mark.parametrize("name", sorted(PAPER_REPS))
def test_paper_scale_rep_runs_the_certified_solver(name, monkeypatch):
    # rep 0 of each study at paper scale, its solver capped at 50 iterations
    config = dataclasses.replace(getattr(experiments, name), iters=50)
    monkeypatch.setattr(experiments, name, config)
    fits, fit = [], solver.fit

    def recording_fit(*args, **kwargs):
        fits.append((args[4], *fit(*args, **kwargs)))
        return fits[-1][1:]

    monkeypatch.setattr(solver, "fit", recording_fit)
    rep, args = PAPER_REPS[name]
    row = rep(args)
    [(used, state, _)] = fits
    assert used is config
    assert 0 <= state.t <= 50 and row["iters"] == state.t
    assert all(np.isfinite([state.g, state.primal, state.rel_gap, state.max_c]))
    mses = [v for k, v in row.items() if "mse" in k]
    assert mses and all(np.isfinite(mses))


def test_worker_count_leaves_the_rows_unchanged(monkeypatch):
    # pii_full's ten desk reps, in one process and on a pool of two
    monkeypatch.setenv("SPARSEKERN_THREADS", "1")
    serial = experiments.run_experiment("pii_full").rows
    monkeypatch.setenv("SPARSEKERN_THREADS", "2")
    assert experiments.run_experiment("pii_full").rows == serial
