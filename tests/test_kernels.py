import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from sparsekern import KernelSpec
from sparsekern import kernels
from sparsekern.dual_field import ProblemVariant, Quadrature, quadrature_nodes
from sparsekern.errors import DomainError
from sparsekern.models import DiscreteModel

SPEC = KernelSpec(w_lo=0.05, w_hi=3.0, box=np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]))


def finite_diff_grad(spec, x, z, w, h=1e-5):
    """Central finite differences in z and w."""
    z = np.asarray(z, dtype=float)
    gz = np.zeros_like(z)
    for d in range(z.size):
        e = np.zeros_like(z)
        e[d] = h
        gz[d] = (reference.value(spec, x, z + e, w) - reference.value(spec, x, z - e, w)) / (2 * h)
    gw = (reference.value(spec, x, z, w + h) - reference.value(spec, x, z, w - h)) / (2 * h)
    return gz, gw


def test_value_at_zero_distance_is_one():
    for w in (0.05, 0.5, 3.0):
        assert reference.value(SPEC, [0.3, 0.4, 0.5], [0.3, 0.4, 0.5], w) == 1.0


def test_value_at_distance_w():
    # ||x - z|| = w gives exp(-1/2)
    v = reference.value(SPEC, [0.0, 0.0, 0.0], [0.453, 0.0, 0.0], 0.453)
    assert v == pytest.approx(np.exp(-0.5), rel=1e-12)
    assert v == pytest.approx(0.60653, abs=1e-5)


def test_value_unit_distance_narrow_width():
    v = reference.value(SPEC, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], 0.453)
    assert v == pytest.approx(np.exp(-1.0 / (2 * 0.453**2)), rel=1e-12)
    assert v == pytest.approx(0.0874, abs=1e-4)


def test_value_range_and_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, z = rng.uniform(0, 1, 3), rng.uniform(0, 1, 3)
        w = rng.uniform(0.05, 3.0)
        v = reference.value(SPEC, x, z, w)
        assert 0.0 < v <= 1.0
        assert v == reference.value(SPEC, z, x, w)


def test_width_outside_domain_raises():
    with pytest.raises(DomainError):
        reference.value(SPEC, [0.0, 0, 0], [1.0, 0, 0], 0.01)
    with pytest.raises(DomainError):
        kernels.cross(SPEC, np.zeros((2, 3)), np.zeros((1, 3)), 4.0)


def test_batch_single_element_matches_value():
    v = kernels.cross(SPEC, np.array([[0.1, 0.2, 0.3]]), np.array([[0.5, 0.5, 0.5]]), 0.7)
    assert v.shape == (1, 1)
    assert v[0, 0] == reference.value(SPEC, [0.1, 0.2, 0.3], [0.5, 0.5, 0.5], 0.7)


def test_batch_all_at_center_gives_ones():
    z = np.array([0.4, 0.4, 0.4])
    X = np.tile(z, (5, 1))
    assert np.array_equal(kernels.cross(SPEC, X, z[None, :], 1.0)[:, 0], np.ones(5))


def test_batch_matches_scalar_loop_exactly():
    rng = np.random.default_rng(1)
    X = rng.uniform(0, 1, (32, 3))
    z = rng.uniform(0, 1, 3)
    w = 0.8
    batch = kernels.cross(SPEC, X, z[None, :], w)[:, 0]
    loop = np.array([reference.value(SPEC, x, z, w) for x in X])
    assert np.array_equal(batch, loop)


@pytest.mark.parametrize("p", [1, 2])
def test_column_widths_give_the_transpose_bit_for_bit(p):
    # the nodes as points with one width per row read K^T node-major
    spec = KernelSpec(w_lo=0.05, w_hi=3.0, box=np.array([[-4.0, 9.0]] * p))
    rng = np.random.default_rng(p)
    X = rng.uniform(-4.0, 9.0, (37, p))
    Z = rng.uniform(-4.0, 9.0, (53, p))
    W = rng.uniform(0.05, 3.0, 53)
    Kt = kernels.cross(spec, Z, X, W[:, None])
    assert Kt.shape == (53, 37)
    assert np.array_equal(Kt, kernels.cross(spec, X, Z, W).T)


@pytest.mark.parametrize("p", [2, 3])
def test_sqdist_in_row_blocks_equals_the_per_axis_sum_bit_for_bit(p):
    # 700 rows against 200 points: blocks of 327 rows, the last one short
    rng = np.random.default_rng(p)
    X, Z = rng.uniform(-4.0, 9.0, (700, p)), rng.uniform(-4.0, 9.0, (200, p))
    expected = (X[:, 0, None] - Z[None, :, 0]) ** 2
    for k in range(1, p):
        expected += (X[:, k, None] - Z[None, :, k]) ** 2
    assert np.array_equal(kernels.sqdist(X, Z), expected)


def test_sqdist_against_no_points_is_empty():
    assert kernels.sqdist(np.ones((5, 2)), np.zeros((0, 2))).shape == (5, 0)


def test_held_2d_kernel_matrix_is_the_only_full_size_array():
    # K^T of 96^2 x 4 nodes against 200 samples, read node-major as the
    # solver holds it: 56 MB, with no second array of its size beside it
    spec = KernelSpec(w_lo=0.1, w_hi=1.0, box=np.array([[0.0, 1.0]] * 2))
    Z, W, _ = quadrature_nodes(spec, ProblemVariant.full(), Quadrature(96, 4))
    X = np.random.default_rng(0).uniform(0.0, 1.0, (200, 2))
    tracemalloc.start()
    try:
        Kt = kernels.cross(spec, Z, X, W[:, None])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert Kt.shape == (36864, 200) and peak <= 1.1 * Kt.nbytes


def test_column_width_outside_domain_names_it():
    W = np.array([0.5, 3.5, 1.0])
    with pytest.raises(DomainError, match=r"width 3\.5 outside"):
        kernels.cross(SPEC, np.zeros((3, 3)), np.zeros((2, 3)), W[:, None])


@pytest.mark.parametrize("p", [1, 2])
def test_grid_is_cross_of_the_expanded_nodes_bit_for_bit(p):
    # K with the nodes as columns, and K^T with them as rows, of 53 centers x 7 widths
    spec = KernelSpec(w_lo=0.05, w_hi=3.0, box=np.array([[-4.0, 9.0]] * p))
    rng = np.random.default_rng(p)
    X = rng.uniform(-4.0, 9.0, (37, p))
    centers = rng.uniform(-4.0, 9.0, (53, p))
    widths = rng.uniform(0.05, 3.0, 7)
    Z, W = np.repeat(centers, 7, axis=0), np.tile(widths, 53)
    K = kernels.cross(spec, X, Z, W)
    assert np.array_equal(kernels.grid(spec, X, centers, widths), K)
    assert np.array_equal(kernels.grid(spec, centers, X, widths[:, None]), K.T)


def test_gaussian_is_the_kernel_of_squared_distances_in_place_or_not():
    d2 = np.random.default_rng(5).uniform(0.0, 4.0, (6, 4))
    W = np.array([0.05, 0.3, 1.0, 3.0])
    K = kernels.gaussian(d2, W)
    assert np.array_equal(K, np.exp(-d2 / (2.0 * W**2)))
    out = d2.copy()
    assert kernels.gaussian(out, W, out=out) is out and np.array_equal(out, K)


def test_bounds_are_the_corners_of_the_center_and_width_domain():
    lo, hi = KernelSpec(w_lo=0.2, w_hi=1.5, box=np.array([[0.0, 3.0], [-1.0, 2.0]])).bounds
    assert lo.tolist() == [0.0, -1.0, 0.2] and hi.tolist() == [3.0, 2.0, 1.5]


def test_grid_width_outside_domain_names_it():
    widths = np.array([0.5, 3.5, 1.0])
    for W in (widths, widths[:, None]):
        with pytest.raises(DomainError, match=r"width 3\.5 outside"):
            kernels.grid(SPEC, np.zeros((3, 3)), np.zeros((2, 3)), W)


def test_grad_zero_at_coincident_points():
    gz, gw = reference.grad(SPEC, [0.2, 0.2, 0.2], [0.2, 0.2, 0.2], 0.5)
    assert np.all(gz == 0.0)
    assert gw == 0.0


def test_grad_width_positive_off_center():
    _, gw = reference.grad(SPEC, [0.1, 0.0, 0.0], [0.6, 0.0, 0.0], 0.5)
    assert gw > 0.0


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        x = rng.uniform(0, 1, 3)
        z = rng.uniform(0, 1, 3)
        w = rng.uniform(0.3, 2.0)
        gz, gw = reference.grad(SPEC, x, z, w)
        fz, fw = finite_diff_grad(SPEC, x, z, w)
        a = np.append(gz, gw)
        f = np.append(fz, fw)
        assert np.linalg.norm(a - f) <= 1e-6 * max(np.linalg.norm(a), 1e-9)


def test_gram_positive_semidefinite():
    rng = np.random.default_rng(3)
    for w in (0.1, 0.5, 2.0):
        X = rng.uniform(0, 1, (20, 3))
        K = kernels.cross(SPEC, X, X, w)
        eigs = np.linalg.eigvalsh(K)
        assert eigs.min() >= -1e-9


def test_continuity_in_center_and_width():
    x = np.array([0.3, 0.1, 0.9])
    z = np.array([0.6, 0.6, 0.2])
    base = reference.value(SPEC, x, z, 1.0)
    deltas = [1e-2, 1e-4, 1e-6]
    gaps = [
        abs(reference.value(SPEC, x, z + d, 1.0 + d) - base) for d in deltas
    ]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-5


@given(
    st.floats(min_value=0.05, max_value=3.0),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=3),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_value_bounds_property(w, x, z):
    v = reference.value(SPEC, x, z, w)
    assert 0.0 < v <= 1.0


def test_spec_validation():
    with pytest.raises(DomainError):
        KernelSpec(w_lo=0.0, w_hi=1.0, box=np.array([[0.0, 1.0]]))
    with pytest.raises(DomainError):
        KernelSpec(w_lo=1.0, w_hi=0.5, box=np.array([[0.0, 1.0]]))
    with pytest.raises(DomainError):
        KernelSpec(w_lo=0.1, w_hi=1.0, box=np.array([[1.0, 1.0]]))


def test_spec_json_round_trip():
    d = SPEC.to_dict()
    assert set(d) == {"w_lo", "w_hi", "box"}
    back = KernelSpec.from_dict(d)
    assert back.w_lo == SPEC.w_lo and back.w_hi == SPEC.w_hi
    assert np.array_equal(back.box, SPEC.box)


@given(
    p=st.integers(1, 3),
    offset=st.floats(-1e6, 1e6),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_cross_and_model_are_translation_invariant(p, offset, seed):
    # widths >= 0.3 keep the rounding of x + offset (ulp(1e6) ~ 1.2e-10) below 1e-9
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, (6, p))
    Z = rng.uniform(0.0, 1.0, (4, p))
    W = rng.uniform(0.3, 2.0, 4)
    spec = KernelSpec(w_lo=0.3, w_hi=2.0, box=np.tile([0.0, 1.0], (p, 1)))
    K = kernels.cross(spec, X, Z, W)
    assert np.allclose(kernels.cross(spec, X + offset, Z + offset, W), K, rtol=0.0, atol=1e-9)
    a = rng.normal(0.0, 1.0, 4)
    model = DiscreteModel(a / np.sum(np.abs(a)), Z, W)
    shifted = DiscreteModel(model.amplitudes, Z + offset, W)
    assert np.allclose(
        shifted.predict_batch(X + offset), model.predict_batch(X), rtol=0.0, atol=1e-9
    )


def test_narrow_kernel_far_from_the_origin():
    # 0.01 apart at w = 0.01 is exp(-1/2) wherever the pair sits
    spec = KernelSpec(w_lo=0.01, w_hi=1.0, box=np.array([[0.0, 1.0]]))
    x, z = np.array([[1e6]]), np.array([[1e6 + 0.01]])
    assert kernels.cross(spec, x, z, 0.01)[0, 0] == pytest.approx(0.6065306597, rel=1e-6)
    model = DiscreteModel(np.array([1.0]), z, np.array([0.01]))
    assert model.predict_batch(x)[0] == pytest.approx(0.6065306597, rel=1e-6)
