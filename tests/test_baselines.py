import numpy as np
import pytest

from sparsekern import KernelSpec, KompConfig, SampleSet, gen_remark1, komp_fit, ridge_fit
from sparsekern import datasets, kernels
from sparsekern.baselines import komp_fit_with_path
from sparsekern.errors import ConfigError
from sparsekern.experiments import KOMP_KERNEL, MIXED_NOISE_SD

KERNEL = KernelSpec(w_lo=0.3, w_hi=1.8, box=np.array([[0.0, 5.0]]))


def exhaustive_best_removal(X, y, w0, active):
    """One-step oracle: refit every candidate subset and keep the best."""
    best = None
    for j in range(len(active)):
        trial = active[:j] + active[j + 1 :]
        if trial:
            Phi = kernels.cross(KERNEL, X, X[trial], np.full(len(trial), w0))
            amps, *_ = np.linalg.lstsq(Phi, y, rcond=None)
            sse = float(np.sum((y - Phi @ amps) ** 2))
        else:
            sse = float(y @ y)
        if best is None or sse < best[1] - 1e-12:
            best = (j, sse)
    return best


def test_ridge_single_sample_closed_form():
    data = SampleSet(np.array([[1.0]]), np.array([1.0]), np.array([[0.0, 5.0]]))
    for reg in (0.1, 1.0, 3.0):
        model = ridge_fit(data, KERNEL, 1.0, reg)
        assert model.amplitudes[0] == pytest.approx(1.0 / (1.0 + reg), abs=1e-12)


def test_ridge_zero_labels():
    data = gen_remark1(6, 0)
    data = SampleSet(data.X, np.zeros(6), data.box)
    model = ridge_fit(data, KERNEL, 1.0, 0.5)
    assert np.allclose(model.amplitudes, 0.0)


def test_ridge_residual_vanishes_as_reg_shrinks():
    data = gen_remark1(5, 1)
    res = []
    for reg in (1e-1, 1e-4, 1e-8):
        model = ridge_fit(data, KERNEL, 1.0, reg)
        res.append(float(np.mean((data.y - model.predict_batch(data.X)) ** 2)))
    assert res[0] > res[1] > res[2]
    assert res[2] < 1e-10


def test_ridge_matches_dense_solve_oracle():
    data = gen_remark1(12, 2)
    reg = 1e-3
    model = ridge_fit(data, KERNEL, 0.8, reg)
    K = kernels.cross(KERNEL, data.X, data.X, 0.8)
    oracle = K @ np.linalg.solve(K + reg * np.eye(12), data.y)
    assert np.allclose(model.predict_batch(data.X), oracle, atol=1e-8)


def test_ridge_requires_positive_reg():
    with pytest.raises(ConfigError):
        ridge_fit(gen_remark1(4, 3), KERNEL, 1.0, 0.0)


def test_komp_keep_all_when_count_equals_n():
    data = gen_remark1(8, 4)
    model = komp_fit(data, KERNEL, 1.0, KompConfig(stop="kernel_count", value=8))
    assert model.n_terms == 8
    assert np.allclose(np.sort(model.centers[:, 0]), np.sort(data.X[:, 0]))


def test_komp_infinite_target_empties_the_model():
    data = gen_remark1(6, 5)
    model = komp_fit(data, KERNEL, 1.0, KompConfig(stop="error_target", value=np.inf))
    assert model.n_terms == 0


def test_komp_count_above_n_rejected():
    data = gen_remark1(4, 6)
    with pytest.raises(ConfigError):
        komp_fit(data, KERNEL, 1.0, KompConfig(stop="kernel_count", value=5))


def test_komp_error_non_decreasing_along_path():
    data = gen_remark1(12, 7)
    _, path = komp_fit_with_path(data, KERNEL, 1.0, KompConfig(stop="kernel_count", value=1))
    errs = [m for _, m in path]
    assert all(errs[i + 1] >= errs[i] - 1e-10 for i in range(len(errs) - 1))


def test_komp_error_target_is_respected():
    data = gen_remark1(12, 8)
    target = 1e-4
    model, path = komp_fit_with_path(
        data, KERNEL, 1.0, KompConfig(stop="error_target", value=target)
    )
    assert path[-1][1] <= target
    assert model.n_terms < 12


def test_komp_greedy_matches_exhaustive_oracle():
    rng = np.random.default_rng(9)
    for trial in range(5):
        n = int(rng.integers(5, 11))
        X = rng.uniform(0, 5, (n, 1))
        y = rng.normal(0, 1, n)
        data = SampleSet(X, y, np.array([[0.0, 5.0]]))
        _, path = komp_fit_with_path(data, KERNEL, 0.9, KompConfig(stop="kernel_count", value=1))
        active = list(range(n))
        for step in range(n - 1):
            j, _ = exhaustive_best_removal(X, y, 0.9, active)
            active = active[:j] + active[j + 1 :]
            # the path's error at this count must match the oracle's refit
            Phi = kernels.cross(KERNEL, X, X[active], np.full(len(active), 0.9))
            amps, *_ = np.linalg.lstsq(Phi, y, rcond=None)
            oracle_mse = float(np.mean((y - Phi @ amps) ** 2))
            assert path[step + 1][1] == pytest.approx(oracle_mse, abs=1e-8)


def test_komp_on_numerically_singular_gram_is_exact_least_squares():
    # komp_sparsity rep-1 training set: cond(Gram) ~ 1e17, so a ridge-biased or
    # normal-equation refit cannot reach the target that exact least squares meets
    train, _ = datasets.gen_mixed_gauss(5, 0.5, 20, MIXED_NOISE_SD, 1)
    target = 5e-4
    model, path = komp_fit_with_path(
        train, KOMP_KERNEL, 0.5, KompConfig(stop="error_target", value=target)
    )
    assert model.n_terms < 20
    assert path[-1][1] <= target
    # amplitudes reach ~5e8 here, so evaluating y - Phi a in float64 carries a
    # relative error near 1e-6 in the MSE; 1e-5 still rejects a path error
    # that does not belong to the returned model
    mse = float(np.mean((train.y - model.predict_batch(train.X)) ** 2))
    assert mse == pytest.approx(path[-1][1], rel=1e-5)


def test_komp_remark1_survivor_is_nearest_sample_to_center():
    data = gen_remark1(12, 11)
    model = komp_fit(data, KERNEL, 1.0, KompConfig(stop="kernel_count", value=1))
    nearest = data.X[np.argmin(np.abs(data.X[:, 0] - 2.5)), 0]
    assert model.centers[0, 0] == pytest.approx(nearest)


def test_komp_magnitude_scoring_variant_runs():
    data = gen_remark1(10, 12)
    model = komp_fit(data, KERNEL, 1.0, KompConfig(stop="kernel_count", value=3, refit=False))
    assert model.n_terms == 3
    assert np.all(np.isfinite(model.amplitudes))


def test_komp_config_validation():
    with pytest.raises(ConfigError):
        KompConfig(stop="nope", value=1)
    with pytest.raises(ConfigError):
        KompConfig(stop="error_target", value=-1.0)
    with pytest.raises(ConfigError):
        KompConfig(stop="kernel_count", value=0)


@pytest.mark.parametrize(
    "stop, value",
    [
        ("kernel_count", 2.5),  # ran as 2 kernels
        ("kernel_count", np.inf),  # int() raised OverflowError
        ("kernel_count", np.nan),
        ("error_target", np.nan),  # eliminated every kernel
    ],
)
def test_komp_config_refuses_a_value_it_would_misuse_naming_it(stop, value):
    with pytest.raises(ConfigError, match=repr(value)):
        KompConfig(stop=stop, value=value)


def test_komp_integral_float_kernel_count_keeps_that_many():
    data = gen_remark1(8, 4)
    assert komp_fit(data, KERNEL, 1.0, KompConfig(stop="kernel_count", value=3.0)).n_terms == 3
