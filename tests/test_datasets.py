import numpy as np
import pytest

from sparsekern import KernelSpec, SampleSet, gen_mixed_gauss, gen_remark1, gen_sin_squared, ridge_fit
from sparsekern import datasets
from sparsekern.datasets import load_csv, save_csv
from sparsekern.errors import ConfigError, DomainError


def test_sample_set_validation():
    with pytest.raises(DomainError):
        SampleSet(np.array([[0.5], [2.0]]), np.array([0.0, 1.0]), np.array([[0.0, 1.0]]))
    with pytest.raises(DomainError):
        SampleSet(np.array([[0.5]]), np.array([np.nan]), np.array([[0.0, 1.0]]))
    # the box is checked exactly: one ulp outside is refused, the bound itself is in
    box = np.array([[0.0, 1.0]])
    for outside in (np.nextafter(1.0, 2.0), np.nextafter(0.0, -1.0)):
        with pytest.raises(DomainError, match="outside the domain box"):
            SampleSet(np.array([[0.5], [outside]]), np.zeros(2), box)
    on_bound = SampleSet(np.array([[0.0], [1.0]]), np.zeros(2), box)
    assert np.array_equal(on_bound.X, [[0.0], [1.0]])


def test_mixed_gauss_noiseless_matches_truth():
    data, truth = gen_mixed_gauss(4, 0.5, 30, 0.0, seed=3)
    assert np.allclose(data.y, truth.predict_batch(data.X))


def test_mixed_gauss_paper_setting_shapes():
    data, truth = gen_mixed_gauss(10, 0.453, 50, 1e-3, seed=0)
    assert data.n == 50 and truth.n_terms == 10
    assert np.all(truth.amplitudes >= 1.0) and np.all(truth.amplitudes <= 2.0)
    assert np.all(truth.centers >= 1.0) and np.all(truth.centers <= 2.0)
    assert np.all(truth.widths == 0.453)


def test_mixed_gauss_deterministic():
    a, _ = gen_mixed_gauss(3, 0.5, 20, 0.01, seed=11)
    b, _ = gen_mixed_gauss(3, 0.5, 20, 0.01, seed=11)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)


def test_mixed_gauss_truth_in_its_rkhs():
    # ridge at the generating width on dense noiseless data nails the signal
    data, _ = gen_mixed_gauss(5, 0.5, 120, 0.0, seed=5)
    kernel = KernelSpec(w_lo=0.1, w_hi=1.0, box=data.box)
    model = ridge_fit(data, kernel, 0.5, reg=1e-10)
    mse = float(np.mean((data.y - model.predict_batch(data.X)) ** 2))
    assert mse < 1e-6


def test_sin_squared_values_and_grid():
    data = gen_sin_squared(51, 0.0, seed=0, grid=True)
    assert data.X[0, 0] == -5.0 and data.X[-1, 0] == 5.0
    steps = np.diff(data.X[:, 0])
    assert np.allclose(steps, 0.2)
    at_zero = data.y[np.argmin(np.abs(data.X[:, 0]))]
    assert at_zero == pytest.approx(0.0, abs=1e-12)
    at_one = data.y[np.argmin(np.abs(data.X[:, 0] - 1.0))]
    assert at_one == pytest.approx(1.0, abs=1e-12)


def test_sin_squared_random_mode():
    a = gen_sin_squared(40, 0.0, seed=1, grid=False)
    b = gen_sin_squared(40, 0.0, seed=1, grid=False)
    assert np.array_equal(a.X, b.X)
    assert np.all(np.abs(a.X) <= 5.0)
    assert np.allclose(a.y, np.sin(0.5 * np.pi * a.X[:, 0] ** 2))


def test_remark1_excludes_peak():
    data = gen_remark1(50, seed=2)
    assert np.all(np.abs(data.X[:, 0] - 2.5) >= 0.05)
    assert np.allclose(data.y, np.exp(-((data.X[:, 0] - 2.5) ** 2) / 2.0))
    assert data.y.max() < 1.0


def test_remark1_scalar_value():
    x = 2.5 + np.sqrt(2.0)
    assert np.exp(-((x - 2.5) ** 2) / 2.0) == pytest.approx(np.exp(-1.0))


def test_csv_round_trip(tmp_path):
    data, _ = gen_mixed_gauss(2, 0.5, 12, 0.01, seed=6)
    path = tmp_path / "d.csv"
    save_csv(data, path)
    back = load_csv(path)
    assert np.array_equal(back.X, data.X)
    assert np.array_equal(back.y, data.y)


def test_csv_malformed_row_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,y\n0.5,1.0\noops,2.0\n")
    with pytest.raises(ConfigError, match="line 3"):
        load_csv(path)


def test_csv_wrong_field_count(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,y\n0.5\n")
    with pytest.raises(ConfigError, match="line 2"):
        load_csv(path)


def test_csv_without_a_header_is_refused(tmp_path):
    # np.savetxt writes no header; line 1 of numbers is a sample, never taken for one
    path = tmp_path / "bare.csv"
    np.savetxt(path, np.array([[0.5, 1.0], [1.5, -2.0], [2.5, 3.0]]), delimiter=",")
    with pytest.raises(ConfigError, match=r"bare\.csv: line 1 holds numbers; expected a x1,\.\.\.,xp,y header"):
        load_csv(path)
    # a header of names still reads every data row
    path.write_text("x1,y\n0.5,1.0\n1.5,-2.0\n")
    assert load_csv(path).n == 2
