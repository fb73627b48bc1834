import json

import numpy as np
import pytest

from sparsekern import (
    AlphaField,
    DiscreteModel,
    KernelSpec,
    ProblemVariant,
    Quadrature,
    SampleSet,
    gen_remark1,
)
from sparsekern.dual_field import quadrature_nodes
from sparsekern.errors import ConfigError, DomainError

import reference
from reference import BumpField

KERNEL = KernelSpec(w_lo=0.3, w_hi=1.8, box=np.array([[0.0, 5.0]]))


def make_field(lam=None, gamma=0.5, n=6, variant=None, seed=0):
    data = gen_remark1(n, seed)
    if lam is None:
        lam = np.linspace(-1.0, 1.0, n)
    return AlphaField(data, lam, gamma, KERNEL, variant or ProblemVariant.full())


def smooth(field, z, w) -> float:
    """The field's smooth surface at one node."""
    return field.smooth_at_nodes(np.reshape(z, (1, -1)), w)[0]


def coeff(field, z, w) -> float:
    """The field's thresholded coefficient at one node."""
    return field.coeff_at_nodes(np.reshape(z, (1, -1)), w)[0]


def predict(field, x, quad) -> float:
    """The field's prediction at one point."""
    return field.predict_batch(np.reshape(x, (1, -1)), quad)[0]


def test_zero_lambda_field_is_zero_everywhere():
    field = make_field(lam=np.zeros(6))
    rng = np.random.default_rng(0)
    for _ in range(20):
        z, w = rng.uniform(0, 5, 1), rng.uniform(0.3, 1.8)
        assert smooth(field, z, w) == 0.0
        assert coeff(field, z, w) == 0.0
    assert predict(field, [1.0], Quadrature(64, 16)) == 0.0


def test_single_sample_unit_kernel_value():
    data = gen_remark1(2, 1)
    field = AlphaField(data, np.array([2.0, 0.0]), 0.0, KERNEL, ProblemVariant.full())
    assert smooth(field, data.X[0], 1.0) == pytest.approx(2.0)


def test_smooth_matches_summation_oracle():
    field = make_field()
    rng = np.random.default_rng(1)
    for _ in range(100):
        z, w = rng.uniform(0, 5, 1), rng.uniform(0.3, 1.8)
        oracle = sum(
            l * reference.value(KERNEL, x, z, w) for l, x in zip(field.lam, field.samples.X)
        )
        assert smooth(field, z, w) == pytest.approx(oracle, abs=1e-12)


def test_smooth_gradient_far_from_the_origin_matches_kernel_grad_sum():
    # at offset 1e6 with w = 0.1, forming sum lam k (x - z) as M^T X - vals z cancels
    off, w = 1e6, 0.1
    kernel = KernelSpec(w_lo=0.05, w_hi=1.0, box=np.array([[off, off + 1.0]]))
    X = off + np.array([[0.30], [0.41], [0.47], [0.62], [0.70]])
    data = SampleSet(X, np.zeros(5), kernel.box)
    lam = np.array([1.0, -0.5, 2.0, 0.7, -1.2])
    field = AlphaField(data, lam, 0.1, kernel, ProblemVariant.full())
    Z = off + np.array([[0.45], [0.50], [0.58]])
    W = np.full(3, w)
    vals, gz, gw, _, _ = field.smooth_derivatives(Z, W)
    for j, z in enumerate(Z):
        parts = [reference.grad(kernel, x, z, w) for x in X]
        oracle_z = sum(l * dz for l, (dz, _) in zip(lam, parts))
        oracle_w = sum(l * dw for l, (_, dw) in zip(lam, parts))
        assert gz[j] == pytest.approx(oracle_z, rel=1e-12)
        assert gw[j] == pytest.approx(oracle_w, rel=1e-12)


def test_smooth_hessian_matches_differences_of_the_gradient():
    # two center axes, so the mixed z-z and z-w terms are checked too
    kernel = KernelSpec(w_lo=0.1, w_hi=2.0, box=np.array([[0.0, 5.0], [0.0, 5.0]]))
    rng = np.random.default_rng(4)
    X = rng.uniform(0.0, 5.0, (7, 2))
    data = SampleSet(X, np.zeros(7), kernel.box)
    field = AlphaField(data, rng.normal(0, 1, 7), 0.1, kernel, ProblemVariant.full())
    Z, W = rng.uniform(1.0, 4.0, (4, 2)), rng.uniform(0.5, 1.5, 4)
    _, _, _, hess, mass = field.smooth_derivatives(Z, W)
    K = np.exp(-((X[:, None, :] - Z) ** 2).sum(axis=2) / (2 * W**2))
    assert np.allclose(mass, np.abs(field.lam) @ K)

    def grad(Z, W):
        _, gz, gw, _, _ = field.smooth_derivatives(Z, W)
        return np.column_stack([gz, gw])

    h = 1e-6
    for k in range(3):
        dZ, dW = np.zeros_like(Z), np.zeros_like(W)
        if k < 2:
            dZ[:, k] = h
        else:
            dW[:] = h
        column = (grad(Z + dZ, W + dW) - grad(Z - dZ, W - dW)) / (2 * h)
        assert np.allclose(hess[:, :, k], column, rtol=1e-6, atol=1e-7)
    assert np.array_equal(hess, hess.transpose(0, 2, 1))


def test_threshold_cases():
    # gamma = 0.5 thresholds at 1; scale lambda to land on either side
    data = gen_remark1(1 + 1, 3)
    one = SampleSet(data.X[:1], data.y[:1], data.box)
    f_low = AlphaField(one, np.array([0.9]), 0.5, KERNEL, ProblemVariant.full())
    assert coeff(f_low, one.X[0], 1.0) == 0.0
    f_high = AlphaField(one, np.array([1.5]), 0.5, KERNEL, ProblemVariant.full())
    assert coeff(f_high, one.X[0], 1.0) == pytest.approx(1.5)


def test_zero_gamma_disables_threshold():
    field = make_field(gamma=0.0)
    rng = np.random.default_rng(2)
    for _ in range(1000):
        z, w = rng.uniform(0, 5, 1), rng.uniform(0.3, 1.8)
        assert coeff(field, z, w) == smooth(field, z, w)


def test_threshold_law_on_random_queries():
    rng = np.random.default_rng(3)
    for gamma in (0.0, 0.01, 0.2, 1.0):
        field = make_field(lam=rng.normal(0, 1, 6), gamma=gamma)
        thr = field.threshold
        Z = rng.uniform(0, 5, (500, 1))
        W = rng.uniform(0.3, 1.8, 500)
        vals = field.coeff_at_nodes(Z, W)
        assert np.all((vals == 0.0) | (np.abs(vals) > thr))


def test_variant_validation():
    with pytest.raises(DomainError):
        ProblemVariant.fixed_centers(np.zeros((0, 1)))
    with pytest.raises(DomainError):
        make_field(variant=ProblemVariant.fixed_width(5.0))
    with pytest.raises(DomainError):
        make_field(variant=ProblemVariant.fixed_centers(np.array([[9.0]])))


@pytest.mark.parametrize(
    "kind, fields, ignored",
    [
        ("full", {"w0": 0.5}, "w0"),
        ("full", {"centers": [[1.0]]}, "centers"),
        ("fixed_width", {"w0": 1.0, "centers": [[1.0]]}, "centers"),
        ("fixed_centers", {"centers": [[1.0]], "w0": 0.5}, "w0"),
    ],
)
def test_variant_refuses_a_field_its_kind_ignores(kind, fields, ignored):
    # kept, it would be saved to the field file and loaded back unused
    with pytest.raises(DomainError, match=ignored):
        ProblemVariant(kind, **fields)
    with pytest.raises(DomainError, match=ignored):
        ProblemVariant.from_dict({"kind": kind, **fields})


def test_monotone_sparsification_in_gamma():
    rng = np.random.default_rng(4)
    lam = rng.normal(0, 1, 6)
    Z = np.linspace(0, 5, 200).reshape(-1, 1)
    W = np.full(200, 1.0)
    fractions = []
    for gamma in (0.0, 0.05, 0.2, 0.8, 3.0):
        field = make_field(lam=lam, gamma=gamma)
        fractions.append(np.mean(field.coeff_at_nodes(Z, W) != 0.0))
    assert all(fractions[i + 1] <= fractions[i] for i in range(len(fractions) - 1))


def test_scalar_optimality_against_grid():
    # thresholding minimizes F(a) = a^2/2 + gamma 1[a != 0] - abar * a pointwise
    rng = np.random.default_rng(5)
    for trial in range(20):
        lam = rng.normal(0, 1, 6)
        gamma = rng.uniform(0, 1)
        field = make_field(lam=lam, gamma=gamma)
        L = np.sum(np.abs(lam))
        grid = np.linspace(-L - 1, L + 1, 2001)
        for _ in range(50):
            z, w = rng.uniform(0, 5, 1), rng.uniform(0.3, 1.8)
            s = smooth(field, z, w)
            a = coeff(field, z, w)
            F_a = 0.5 * a * a + gamma * (a != 0.0) - s * a
            F_grid = 0.5 * grid**2 + gamma * (grid != 0.0) - s * grid
            assert F_a <= F_grid.min() + 1e-9


def test_predict_grid_refinement_converges():
    field = make_field(lam=np.array([0.5, -0.3, 0.8, 0.2, -0.6, 0.4]), gamma=0.0)
    coarse = predict(field, [1.7], Quadrature(256, 64))
    fine = predict(field, [1.7], Quadrature(512, 128))
    assert abs(fine - coarse) < 1e-4


def test_fixed_width_predict_matches_manual_integral():
    variant = ProblemVariant.fixed_width(1.0)
    field = make_field(lam=np.array([0.5, -0.3, 0.8, 0.2, -0.6, 0.4]), gamma=0.02, variant=variant)
    n = 4096
    h = 5.0 / n
    z = (np.arange(n) + 0.5) * h
    vals = field.coeff_at_nodes(z.reshape(-1, 1), np.full(n, 1.0))
    kx = np.exp(-((2.2 - z) ** 2) / 2.0)
    manual = float(np.sum(vals * kx) * h)
    assert predict(field, [2.2], Quadrature(4096, 2)) == pytest.approx(manual, abs=1e-12)


def midpoints(lo, hi, n):
    return lo + (hi - lo) / n * (np.arange(n) + 0.5)


KERNEL_2D = KernelSpec(w_lo=0.3, w_hi=1.8, box=np.array([[0.0, 5.0], [-1.0, 1.0]]))
# the 8-per-axis midpoint meshes of KERNEL's and KERNEL_2D's boxes, last axis fastest
MESH_1D = midpoints(0.0, 5.0, 8)[:, None]
MESH_2D = np.array([[a, b] for a in midpoints(0.0, 5.0, 8) for b in midpoints(-1.0, 1.0, 8)])
CENTER_LIST = np.array([[1.0], [3.0], [4.0]])


@pytest.mark.parametrize(
    "kernel, variant, centers, widths, volume",
    [
        (KERNEL, ProblemVariant.full(), MESH_1D, midpoints(0.3, 1.8, 4), 5.0 * 1.5),
        (KERNEL_2D, ProblemVariant.full(), MESH_2D, midpoints(0.3, 1.8, 4), 5.0 * 2.0 * 1.5),
        (KERNEL_2D, ProblemVariant.fixed_width(0.7), MESH_2D, np.array([0.7]), 5.0 * 2.0),
        (
            KERNEL,
            ProblemVariant.fixed_centers(CENTER_LIST),
            CENTER_LIST,
            midpoints(0.3, 1.8, 4),
            3 * 1.5,
        ),
    ],
    ids=["full 1-D", "full 2-D", "fixed_width", "fixed_centers"],
)
def test_quadrature_nodes_are_centers_times_widths(kernel, variant, centers, widths, volume):
    Z, W, wts = quadrature_nodes(kernel, variant, Quadrature(8, 4))
    M, n = centers.shape[0], widths.size
    assert Z.shape == (M * n, kernel.dim) and W.shape == wts.shape == (M * n,)
    # each center once per width, widths varying fastest
    assert np.allclose(Z.reshape(M, n, -1), centers[:, None, :], rtol=1e-15, atol=0.0)
    assert np.allclose(W.reshape(M, n), widths[None, :], rtol=1e-15, atol=0.0)
    # one cell volume per node, and the cells fill the domain: every step,
    # cell and sum here is exact in binary
    assert np.all(wts == volume / (M * n)) and wts.sum() == volume


def test_fixed_centers_nodes_and_predict():
    centers = np.array([[1.0], [3.0], [4.0]])
    variant = ProblemVariant.fixed_centers(centers)
    field = make_field(lam=np.array([0.5, -0.3, 0.8, 0.2, -0.6, 0.4]), gamma=0.0, variant=variant)
    Z, W, wts = quadrature_nodes(KERNEL, variant, Quadrature(2, 64))
    assert Z.shape[0] == 3 * 64
    # integral = sum over centers of width-axis integrals
    total = 0.0
    for c in centers:
        wgrid = W[:64]
        vals = field.coeff_at_nodes(np.tile(c, (64, 1)), wgrid)
        kx = np.array([reference.value(KERNEL, [2.0], c, w) for w in wgrid])
        total += np.sum(vals * kx) * (1.8 - 0.3) / 64
    assert predict(field, [2.0], Quadrature(2, 64)) == pytest.approx(total, abs=1e-12)


def test_integrator_config_errors():
    with pytest.raises(ConfigError):
        Quadrature(0, 16)
    with pytest.raises(ConfigError):
        Quadrature(16, 0)


VARIANTS = {
    "full": ProblemVariant.full(),
    "fixed_width": ProblemVariant.fixed_width(1.0),
    "fixed_centers": ProblemVariant.fixed_centers(np.array([[0.7], [2.5], [4.1]])),
}


@pytest.mark.parametrize("kind", list(VARIANTS))
def test_variant_dict_round_trip(kind):
    variant = VARIANTS[kind]
    doc = variant.to_dict()
    # fields a kind does not use are left out of its document
    assert set(doc) - {"kind"} == {"full": set(), "fixed_width": {"w0"}, "fixed_centers": {"centers"}}[kind]
    back = ProblemVariant.from_dict(json.loads(json.dumps(doc)))
    assert back.kind == kind and back.w0 == variant.w0
    if kind == "fixed_centers":
        assert np.array_equal(back.centers, variant.centers)
    else:
        assert back.centers is None


@pytest.mark.parametrize("kind", list(VARIANTS))
def test_field_json_round_trip_bit_identical(kind, tmp_path):
    lam = np.array([0.5, -0.3, 0.8, 0.2, -0.6, 0.4])
    field = make_field(lam=lam, gamma=0.13, variant=VARIANTS[kind])
    path = tmp_path / "field.json"
    field.save(path)
    assert sorted(json.loads(path.read_text())) == ["gamma", "kernel", "lam", "samples", "variant"]
    back = AlphaField.load(path)
    assert back.to_dict() == field.to_dict()
    quad = Quadrature(128, 32)
    for x in ([0.7], [2.5], [4.1]):
        assert predict(back, x, quad) == predict(field, x, quad)


# ---- bump construction ----------------------------------------------------

BUMP_MODEL = DiscreteModel(np.array([1.3]), np.array([[2.5]]), np.array([1.0]))


def test_bump_zero_amplitudes_zero_field():
    model = DiscreteModel(np.array([0.0]), np.array([[2.5]]), np.array([1.0]))
    bf = BumpField(model, 8, KERNEL)
    rng = np.random.default_rng(6)
    Z = rng.uniform(0, 5, (50, 1))
    W = rng.uniform(0.3, 1.8, 50)
    assert np.all(bf.value_at_nodes(Z, W) == 0.0)
    assert bf.predict([2.5]) == 0.0


def test_bump_support_escape_raises():
    model = DiscreteModel(np.array([1.0]), np.array([[0.1]]), np.array([1.0]))
    with pytest.raises(DomainError):
        BumpField(model, 4, KERNEL)  # 0.1 - 0.25 < 0
    BumpField(model, 16, KERNEL)


def test_bump_mass_on_aligned_grid_equals_amplitude_sum():
    # grid cells exactly tile the bump's box, so midpoint integration is exact
    model = DiscreteModel(np.array([1.3, -0.4]), np.array([[2.5], [1.25]]), np.array([1.0, 0.75]))
    bf = BumpField(model, 4, KERNEL)
    nz, nw = 400, 300  # h_z = 0.0125, h_w = 0.005 both divide every bump edge offset
    hz = 5.0 / nz
    hw = 1.5 / nw
    z = (np.arange(nz) + 0.5) * hz
    w = 0.3 + (np.arange(nw) + 0.5) * hw
    Z, W = np.meshgrid(z, w, indexing="ij")
    vals = bf.value_at_nodes(np.column_stack([Z.ravel()]), W.ravel())
    mass = vals.sum() * hz * hw
    assert mass == pytest.approx(float(np.sum(model.amplitudes)), abs=1e-9)
    assert bf.integral() == pytest.approx(float(np.sum(model.amplitudes)))


def test_bump_prediction_converges_to_model():
    probes = np.linspace(0.35, 4.65, 10)
    errors = {}
    for m in (4, 8, 16, 32):
        bf = BumpField(BUMP_MODEL, m, KERNEL)
        errors[m] = np.array(
            [
                abs(bf.predict([x], nodes_per_axis=24) - BUMP_MODEL.predict_batch([[x]])[0])
                for x in probes
            ]
        )
    ms = (4, 8, 16, 32)
    for a, b in zip(ms, ms[1:]):
        assert np.all(errors[b] < errors[a])
