import numpy as np
import pytest

from sparsekern import (
    AlphaField,
    DiscreteModel,
    KernelSpec,
    Loss,
    PeakConfig,
    ProblemVariant,
    SampleSet,
    SolverConfig,
    extract_model,
    find_peaks,
    fit,
    gen_remark1,
    refit_amplitudes,
)
from sparsekern import kernels
from sparsekern.errors import ConfigError
from sparsekern.extraction import polish_model, subdivided_peaks

KERNEL = KernelSpec(w_lo=0.3, w_hi=1.8, box=np.array([[0.0, 5.0]]))


def test_zero_field_has_no_peaks():
    data = gen_remark1(5, 0)
    field = AlphaField(data, np.zeros(5), 0.1, KERNEL, ProblemVariant.full())
    assert find_peaks(field, PeakConfig(grid_centers=32, grid_widths=8)) == []
    assert extract_model(field, data).n_terms == 0


def test_two_separated_bumps_give_two_peaks():
    X = np.array([[1.0], [4.0]])
    data = SampleSet(X, np.array([1.0, -1.0]), np.array([[0.0, 5.0]]))
    field = AlphaField(data, np.array([2.0, -2.0]), 0.5, KERNEL, ProblemVariant.full())
    peaks = find_peaks(field, PeakConfig(grid_centers=64, grid_widths=8))
    assert len(peaks) == 2
    centers = sorted(z[0] for z, _ in peaks)
    assert abs(centers[0] - 1.0) < 0.1 and abs(centers[1] - 4.0) < 0.1


def test_peaks_exceed_threshold_and_are_local_maxima():
    rng = np.random.default_rng(3)
    data = gen_remark1(8, 3)
    field = AlphaField(data, rng.normal(0, 1, 8), 0.05, KERNEL, ProblemVariant.full())
    peaks = find_peaks(field, PeakConfig(grid_centers=64, grid_widths=16))
    for z, w in peaks:
        v = abs(field.smooth_at_nodes(z.reshape(1, -1), w)[0])
        assert v > field.threshold
        for dz in (-1e-3, 1e-3):
            z2 = np.clip(z + dz, 0.0, 5.0)
            assert abs(field.smooth_at_nodes(z2.reshape(1, -1), w)[0]) <= v + 1e-9


def test_remark1_extraction_recovers_single_center():
    data = gen_remark1(20, 0)
    loss = Loss("quadratic_eps", 1e-3, 10.0)
    kernel = KernelSpec(w_lo=0.5, w_hi=1.5, box=np.array([[0.0, 5.0]]))
    config = SolverConfig(gamma=0.2, iters=2000, center_nodes=512, width_nodes=4)
    state, field = fit(data, kernel, loss, ProblemVariant.fixed_width(1.0), config)
    peaks = find_peaks(field, PeakConfig(grid_centers=128, grid_widths=4))
    assert len(peaks) == 1
    assert abs(peaks[0][0][0] - 2.5) < 0.05


def test_refit_recovers_unit_amplitude():
    rng = np.random.default_rng(4)
    X = rng.uniform(0, 5, (30, 1))
    z0, w0 = np.array([2.2]), 0.9
    y = kernels.cross(KERNEL, X, z0[None, :], w0)[:, 0]
    data = SampleSet(X, y, np.array([[0.0, 5.0]]))
    model = refit_amplitudes([(z0, w0)], data, KERNEL, ridge=0.0)
    assert model.amplitudes[0] == pytest.approx(1.0, abs=1e-6)


def test_refit_zero_labels_zero_amplitudes():
    data = SampleSet(np.array([[1.0], [2.0]]), np.zeros(2), np.array([[0.0, 5.0]]))
    model = refit_amplitudes([(np.array([1.5]), 1.0)], data, KERNEL)
    assert np.allclose(model.amplitudes, 0.0)


def test_refit_duplicate_peak_stays_finite():
    rng = np.random.default_rng(5)
    X = rng.uniform(0, 5, (25, 1))
    y = np.sin(X[:, 0])
    data = SampleSet(X, y, np.array([[0.0, 5.0]]))
    peak = (np.array([2.0]), 1.0)
    other = (np.array([3.5]), 0.8)
    dup = refit_amplitudes([peak, peak, other], data, KERNEL, ridge=1e-8)
    dedup = refit_amplitudes([peak, other], data, KERNEL, ridge=1e-8)
    assert np.all(np.isfinite(dup.amplitudes))
    assert np.allclose(dup.predict_batch(X), dedup.predict_batch(X), atol=1e-6)


def test_refit_never_beats_zero_baseline_backwards():
    rng = np.random.default_rng(6)
    X = rng.uniform(0, 5, (20, 1))
    y = rng.normal(0, 1, 20)
    data = SampleSet(X, y, np.array([[0.0, 5.0]]))
    peaks = [(np.array([c]), 1.0) for c in (1.0, 2.5, 4.0)]
    model = refit_amplitudes(peaks, data, KERNEL)
    sse_fit = np.sum((y - model.predict_batch(X)) ** 2)
    assert sse_fit <= np.sum(y**2) + 1e-9


def test_predict_discrete_values():
    assert DiscreteModel.empty(1).predict_batch([[1.0]])[0] == 0.0
    single = DiscreteModel(np.array([1.0]), np.array([[2.0]]), np.array([0.7]))
    assert single.predict_batch([[2.0]])[0] == 1.0
    rng = np.random.default_rng(7)
    model = DiscreteModel(rng.normal(0, 1, 5), rng.uniform(0, 5, (5, 1)), rng.uniform(0.4, 1.5, 5))
    x = np.array([1.3])
    oracle = sum(
        a * np.exp(-np.sum((x - z) ** 2) / (2 * w**2))
        for a, z, w in zip(model.amplitudes, model.centers, model.widths)
    )
    assert model.predict_batch(x[None, :])[0] == pytest.approx(oracle, abs=1e-12)


def test_polish_reduces_training_sse():
    rng = np.random.default_rng(8)
    X = rng.uniform(0, 5, (40, 1))
    truth = DiscreteModel(np.array([1.0, -0.8]), np.array([[1.5], [3.6]]), np.array([0.6, 0.9]))
    y = truth.predict_batch(X)
    data = SampleSet(X, y, np.array([[0.0, 5.0]]))
    seeds = [(np.array([1.7]), 0.6), (np.array([3.3]), 0.9)]
    rough = refit_amplitudes(seeds, data, KERNEL)
    sse_rough = np.sum((y - rough.predict_batch(X)) ** 2)
    polished = polish_model(rough, data, KERNEL, steps=200, refine_widths=True)
    sse_polished = np.sum((y - polished.predict_batch(X)) ** 2)
    assert sse_polished <= sse_rough
    assert sse_polished < 1e-4
    got = np.sort(polished.centers[:, 0])
    assert np.allclose(got, [1.5, 3.6], atol=0.02)


def test_subdivided_peaks_single_blob_reduces_to_peak():
    pair = gen_remark1(2, 9)
    data = SampleSet(pair.X[:1], pair.y[:1], pair.box)
    field = AlphaField(data, np.array([2.0]), 0.5, KERNEL, ProblemVariant.fixed_width(1.0))
    peaks = subdivided_peaks(field, spacing_factor=1.0)
    assert len(peaks) == 1
    assert abs(peaks[0][0][0] - data.X[0, 0]) < 0.05


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gamma", [0.5, 0.0])
def test_subdivided_peaks_interior_lone_kernel_gives_one_seed_at_its_center(gamma):
    # gamma 0.5: threshold 1 under a kernel of height 3, footprint 2.1 = 4.2 w0;
    # gamma 0: the whole axis is one island
    data = SampleSet(np.array([[2.2]]), np.array([1.0]), np.array([[0.0, 5.0]]))
    field = AlphaField(data, np.array([3.0]), gamma, KERNEL, ProblemVariant.fixed_width(0.5))
    scan_nodes = 1024
    peaks = subdivided_peaks(field, spacing_factor=0.6, scan_nodes=scan_nodes)
    assert len(peaks) == 1
    assert abs(peaks[0][0][0] - 2.2) <= 5.0 / (scan_nodes - 1)


def test_subdivided_peaks_wide_plateau_keeps_several_seeds():
    w0, factor = 0.5, 0.6
    X = (1.0 + 0.3 * np.arange(9)).reshape(-1, 1)  # equal weights spaced below w0
    data = SampleSet(X, np.zeros(9), np.array([[0.0, 5.0]]))
    field = AlphaField(data, np.ones(9), 0.5, KERNEL, ProblemVariant.fixed_width(w0))
    peaks = subdivided_peaks(field, spacing_factor=factor)
    gaps = np.diff(np.sort([z[0] for z, _ in peaks]))
    assert len(peaks) > 1
    assert np.all((gaps >= factor * w0) & (gaps <= 2 * factor * w0))


def test_subdivided_peaks_requires_fixed_width():
    data = gen_remark1(5, 10)
    field = AlphaField(data, np.ones(5), 0.1, KERNEL, ProblemVariant.full())
    with pytest.raises(ConfigError):
        subdivided_peaks(field)


def test_peak_config_validation():
    with pytest.raises(ConfigError):
        PeakConfig(grid_centers=1)
    with pytest.raises(ConfigError):
        PeakConfig(merge_radius=0.0)
    with pytest.raises(ConfigError):
        refit_amplitudes([], gen_remark1(3, 0), KERNEL)


def test_empty_model_keeps_its_dimension_through_save_and_load(tmp_path):
    path = tmp_path / "empty.json"
    DiscreteModel.empty(3).save(path)
    back = DiscreteModel.load(path)
    assert back.n_terms == 0 and back.dim == 3
    assert np.array_equal(back.predict_batch(np.zeros((2, 3))), np.zeros(2))
    # files written without "dim" keep sizing an empty model from the caller
    assert DiscreteModel.from_dict({"terms": []}, dim=2).dim == 2
