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
    gen_mixed_gauss,
    gen_remark1,
    refit_amplitudes,
)
from sparsekern import extraction, kernels
from sparsekern.errors import ConfigError
from sparsekern.extraction import polish_model, subdivided_peaks

import reference

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


def test_refined_remark1_peak_is_stationary_to_rounding_level():
    # the study's fit and scan: the refined center's d abar / dz is within
    # the rounding of its sum, N eps sum_i |lam_i k_i (x_i - z)| / w^2
    from sparsekern import experiments as ex

    data = gen_remark1(20, 0)
    variant = ProblemVariant.fixed_width(1.0)
    _, field = fit(data, ex.REMARK1_KERNEL, ex.REMARK1_LOSS, variant, ex.REMARK1_CONFIG)
    (z, w), = find_peaks(field, PeakConfig(grid_centers=128, grid_widths=4))
    _, gz, _, _, _ = field.smooth_derivatives(z[None, :], w)
    k = kernels.cross(field.kernel, data.X, z[None, :], w)[:, 0]
    scale = np.sum(np.abs(field.lam * k * (data.X[:, 0] - z[0]))) / w**2
    assert abs(gz[0, 0]) <= data.n * np.finfo(float).eps * scale



@pytest.mark.parametrize(
    "study, moving, step0",
    [
        # half of 3 / 96, the center spacing, which exceeds the width's 0.9 / 32
        ("pii_full", [True, True], 0.015625),
        # half of 5 / 128, the center spacing: the width never moves
        ("remark1", [True, False], 0.01953125),
        # half of 0.9 / 32, the width spacing: the centers never move, and
        # the default grid_centers is no spacing of this scan
        ("grid_vs_pii2", [False, True], 0.0140625),
    ],
)
def test_first_refine_step_is_half_the_largest_spacing_along_a_moving_axis(study, moving, step0, monkeypatch):
    # each study's kernel, variant and peak scan, on a field of random multipliers
    from sparsekern import experiments as ex

    if study == "remark1":
        data = gen_remark1(20, 2)
        kernel, variant, cfg = ex.REMARK1_KERNEL, ProblemVariant.fixed_width(1.0), PeakConfig(128, 4)
    else:
        data, _ = gen_mixed_gauss(10, 0.453, 40, 0.03, seed=2)
        full = study == "pii_full"
        variant = ProblemVariant.full() if full else ProblemVariant.fixed_centers(data.X)
        kernel, cfg = ex.MIXED_KERNEL, PeakConfig(96, 32, 0.1) if full else PeakConfig(grid_widths=32, merge_radius=0.1)
    lam = np.random.default_rng(2).normal(0.0, 1.0, data.n)
    field = AlphaField(data, lam, 1e-4, kernel, variant)
    calls = []
    refine = extraction._refine

    def recording(field, Z, W, moving, steps, step0):
        calls.append((moving, step0))
        return refine(field, Z, W, moving, steps, step0)

    monkeypatch.setattr(extraction, "_refine", recording)
    assert find_peaks(field, cfg)
    (mask, steps0), = calls
    assert mask.tolist() == moving
    assert steps0.size > 0 and np.all(steps0 == step0)

def test_first_refine_step_scales_with_each_axis_of_an_anisotropic_box():
    # one sample of a fixed-width field on [0, 1] x [0, 100]: the 8-node scan
    # spaces the second axis 12.5 apart, and a step sized by the first axis's
    # 0.125 ends its 50 refine steps at (0.470, 53.125), short of the sample
    box = np.array([[0.0, 1.0], [0.0, 100.0]])
    kernel = KernelSpec(w_lo=1.0, w_hi=20.0, box=box)
    data = SampleSet(np.array([[0.5, 50.3]]), np.array([1.0]), box)
    field = AlphaField(data, np.array([1.0]), 0.0, kernel, ProblemVariant.fixed_width(10.0))
    (z, w), = find_peaks(field, PeakConfig(8, 2))
    assert w == 10.0
    assert np.allclose(z, [0.5, 50.3], rtol=1e-12, atol=1e-12)


def test_refine_merges_each_pii_full_desk_field_to_three_peaks():
    # the study's fields and scan, seed 0, reps 0-9: a candidate left on its
    # scan node, or moved to the vertex of its per-axis parabola, stays
    # apart from the peak its ridge leads to, and rep 9 gives 4 peaks
    from sparsekern import experiments as ex, losses

    for rep in range(10):
        train, _ = ex._mixed_gauss_draw(rep, 100, 500)
        loss = losses.default_loss("quadratic_eps", train.y)
        _, field = fit(train, ex.MIXED_KERNEL, loss, ProblemVariant.full(), ex.PII_FULL_CONFIG)
        assert len(find_peaks(field, PeakConfig(96, 32, 0.1))) == 3, rep


def test_refit_recovers_unit_amplitude():
    rng = np.random.default_rng(4)
    X = rng.uniform(0, 5, (30, 1))
    z0, w0 = np.array([2.2]), 0.9
    y = kernels.cross(KERNEL, X, z0[None, :], w0)[:, 0]
    data = SampleSet(X, y, np.array([[0.0, 5.0]]))
    model = refit_amplitudes([(z0, w0)], data, KERNEL)
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
    dup = refit_amplitudes([peak, peak, other], data, KERNEL)
    dedup = refit_amplitudes([peak, other], data, KERNEL)
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
    assert np.array_equal(DiscreteModel.empty(1).predict_batch(np.ones((4, 1))), np.zeros(4))
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


def _polish_cases():
    """(name, seed model, samples, kernel, steps, refine_widths) of the oracle test."""
    from sparsekern import experiments as ex

    # pii_full's seed-0 desk rep 0, as the study polishes it
    train, _ = ex._mixed_gauss_draw(0, 100, 500)
    peaks = PeakConfig(grid_centers=96, grid_widths=32, merge_radius=0.1)
    _, seed = ex._fit_extract(train, ex.MIXED_KERNEL, ProblemVariant.full(), ex.PII_FULL_CONFIG, peaks)
    yield "pii_full", seed, train, ex.MIXED_KERNEL, ex.PII_FULL_POLISH_STEPS, True
    # komp_sparsity's rep 0: centers only
    train, _ = gen_mixed_gauss(5, 0.5, 20, ex.MIXED_NOISE_SD, 0)
    variant = ProblemVariant.fixed_width(0.5)
    _, seed = ex._fit_extract(train, ex.KOMP_KERNEL, variant, ex.KOMP_SPARSITY_CONFIG, subdivided_peaks)
    yield "komp_sparsity", seed, train, ex.KOMP_KERNEL, ex.KOMP_POLISH_STEPS, False
    # a 2-D model, three terms off their true places
    kernel = KernelSpec(w_lo=0.2, w_hi=1.5, box=np.array([[0.0, 3.0], [0.0, 3.0]]))
    X = np.random.default_rng(4).uniform(0.0, 3.0, (60, 2))
    truth = DiscreteModel(np.array([1.0, -0.7, 0.5]), np.array([[0.8, 1.0], [2.2, 2.0], [1.5, 0.4]]),
                          np.array([0.5, 0.7, 0.4]))
    data = SampleSet(X, truth.predict_batch(X), kernel.box)
    seeds = [(np.array([1.0, 1.2]), 0.6), (np.array([2.0, 2.3]), 0.6), (np.array([1.3, 0.6]), 0.5)]
    yield "p = 2", refit_amplitudes(seeds, data, kernel), data, kernel, 80, True


def _sse(model, samples):
    r = samples.y - model.predict_batch(samples.X)
    return float(r @ r)


def _same(a, b):
    return all(np.array_equal(getattr(a, part), getattr(b, part)) for part in ("amplitudes", "centers", "widths"))


def _zero_curvature_case():
    """8 centers-only terms on 12 samples: fewer samples than the 16
    parameters, so the curvature is zero and the step is the reference's."""
    kernel = KernelSpec(w_lo=0.3, w_hi=1.8, box=np.array([[0.0, 5.0]]))
    rng = np.random.default_rng(0)
    X = rng.uniform(0.0, 5.0, (12, 1))
    data = SampleSet(X, np.sin(2.0 * X[:, 0]) + 0.1 * rng.normal(size=12), kernel.box)
    seed = refit_amplitudes([(np.array([c]), 0.5) for c in np.linspace(0.4, 4.6, 8)], data, kernel)
    return seed, data, kernel


def test_polish_equals_the_reference_bit_for_bit():
    seed, data, kernel = _zero_curvature_case()
    got = polish_model(seed, data, kernel, 40)
    want = reference.polish_model(seed, data, kernel, 40)
    # the reference takes all 40 steps, so every step was compared
    assert not _same(want, reference.polish_model(seed, data, kernel, 39))
    assert _same(got, want)


def test_zero_curvature_polish_builds_no_gauss_newton_model(monkeypatch):
    # every solve is an amplitude refit, with one right-hand side: the
    # Jacobian is never projected, and its Gram never formed or factored
    seed, data, kernel = _zero_curvature_case()
    solve, rhs = np.linalg.solve, []

    def recording(a, b):
        rhs.append(np.ndim(b))
        return solve(a, b)

    def refused(*args, **kwargs):
        raise AssertionError("eigh called without curvature")

    monkeypatch.setattr(np.linalg, "solve", recording)
    monkeypatch.setattr(np.linalg, "eigh", refused)
    polish_model(seed, data, kernel, 40)
    assert len(rhs) > 40 and set(rhs) == {1}


def test_overdetermined_polish_ends_below_the_reference_before_its_cap():
    for name, seed, samples, kernel, steps, refine_widths in _polish_cases():
        got = polish_model(seed, samples, kernel, steps, refine_widths)
        want = reference.polish_model(seed, samples, kernel, steps, refine_widths)
        assert _sse(got, samples) <= _sse(want, samples), name
        box = kernel.box
        assert np.all((got.centers >= box[:, 0]) & (got.centers <= box[:, 1])), name
        assert np.all((got.widths >= kernel.w_lo) & (got.widths <= kernel.w_hi)), name
        # a polish that used every step differs from one a step shorter
        assert _same(got, polish_model(seed, samples, kernel, steps - 1, refine_widths)), name


def _stationarity(model, samples, kernel):
    """Max over the free coordinates (z, w) of |Jp_k^T r| / (|Jp_k| |r|).

    Jp_k is a_j d phi_j / d theta_jk from ``reference.grad``, less its least
    squares fit by the kernel columns; a coordinate at a bound whose
    gradient -2 J_k^T r points outward is not free.
    """
    Phi = kernels.cross(kernel, samples.X, model.centers, model.widths)
    r = samples.y - Phi @ model.amplitudes
    lo = np.append(kernel.box[:, 0], kernel.w_lo)
    hi = np.append(kernel.box[:, 1], kernel.w_hi)
    cosines = []
    for a, z, w in zip(model.amplitudes, model.centers, model.widths):
        parts = [reference.grad(kernel, x, z, w) for x in samples.X]
        jac = a * np.column_stack([np.array([dz for dz, _ in parts]), [dw for _, dw in parts]])
        jac -= Phi @ np.linalg.lstsq(Phi, jac, rcond=None)[0]
        g = -2.0 * (jac.T @ r)
        theta = np.append(z, w)
        free = np.where(g > 0.0, theta > lo, theta < hi)
        cosines.extend((np.abs(jac.T @ r) / (np.linalg.norm(jac, axis=0) * np.linalg.norm(r)))[free])
    return max(cosines)


def test_pii_full_polish_descends_and_stops_stationary_before_its_cap():
    _, seed, samples, kernel, cap, _ = next(_polish_cases())
    sses = [_sse(polish_model(seed, samples, kernel, k, True), samples) for k in range(9)]
    assert all(b <= a for a, b in zip(sses, sses[1:]))
    final = polish_model(seed, samples, kernel, cap, True)
    taken = next(k for k in range(cap + 1) if _same(polish_model(seed, samples, kernel, k, True), final))
    assert taken < cap
    assert _stationarity(final, samples, kernel) <= extraction._STATIONARY
    assert _stationarity(polish_model(seed, samples, kernel, taken - 1, True), samples, kernel) > extraction._STATIONARY


def test_subdivided_peaks_single_blob_reduces_to_peak():
    pair = gen_remark1(2, 9)
    data = SampleSet(pair.X[:1], pair.y[:1], pair.box)
    field = AlphaField(data, np.array([2.0]), 0.5, KERNEL, ProblemVariant.fixed_width(1.0))
    peaks = subdivided_peaks(field)
    assert len(peaks) == 1
    assert abs(peaks[0][0][0] - data.X[0, 0]) < 0.05


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gamma", [0.5, 0.0])
def test_subdivided_peaks_interior_lone_kernel_gives_one_seed_at_its_center(gamma):
    # gamma 0.5: threshold 1 under a kernel of height 3, footprint 2.1 = 4.2 w0;
    # gamma 0: the whole axis is one island
    data = SampleSet(np.array([[2.2]]), np.array([1.0]), np.array([[0.0, 5.0]]))
    field = AlphaField(data, np.array([3.0]), gamma, KERNEL, ProblemVariant.fixed_width(0.5))
    peaks = subdivided_peaks(field)
    assert len(peaks) == 1
    assert abs(peaks[0][0][0] - 2.2) <= 5.0 / (extraction._SUBDIVIDE_SCAN - 1)


def test_subdivided_peaks_wide_plateau_keeps_several_seeds():
    w0, factor = 0.5, extraction._SUBDIVIDE_SPACING
    X = (1.0 + 0.3 * np.arange(9)).reshape(-1, 1)  # equal weights spaced below w0
    data = SampleSet(X, np.zeros(9), np.array([[0.0, 5.0]]))
    field = AlphaField(data, np.ones(9), 0.5, KERNEL, ProblemVariant.fixed_width(w0))
    peaks = subdivided_peaks(field)
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
        PeakConfig(merge_radius=0.0)
    with pytest.raises(ConfigError):
        refit_amplitudes([], gen_remark1(3, 0), KERNEL)


def test_grid_sizes_are_checked_on_the_scanned_axes_only():
    data, _ = gen_mixed_gauss(10, 0.453, 40, 0.03, seed=2)
    lam = np.random.default_rng(2).normal(0.0, 1.0, data.n)
    from sparsekern import experiments as ex

    # a fixed-centers scan never reads grid_centers
    field = AlphaField(data, lam, 1e-4, ex.MIXED_KERNEL, ProblemVariant.fixed_centers(data.X))
    cfg = PeakConfig(grid_centers=1, grid_widths=32, merge_radius=0.1)
    peaks = find_peaks(field, cfg)
    twice = find_peaks(field, PeakConfig(grid_centers=2, grid_widths=32, merge_radius=0.1))
    assert peaks and np.array_equal(np.array([np.append(z, w) for z, w in peaks]), [np.append(z, w) for z, w in twice])
    full = AlphaField(data, lam, 1e-4, ex.MIXED_KERNEL, ProblemVariant.full())
    with pytest.raises(ConfigError, match="grid_centers"):
        find_peaks(full, cfg)


def test_empty_model_keeps_its_dimension_through_save_and_load(tmp_path):
    path = tmp_path / "empty.json"
    DiscreteModel.empty(3).save(path)
    back = DiscreteModel.load(path)
    assert back.n_terms == 0 and back.dim == 3
    assert np.array_equal(back.predict_batch(np.zeros((2, 3))), np.zeros(2))
    # files written without "dim" keep sizing an empty model from the caller
    assert DiscreteModel.from_dict({"terms": []}, dim=2).dim == 2
