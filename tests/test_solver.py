import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsekern import (
    AlphaField,
    DualState,
    KernelSpec,
    Loss,
    Problem,
    ProblemVariant,
    Quadrature,
    SampleSet,
    SolverConfig,
    dual_objective,
    fit,
    gen_mixed_gauss,
    gen_remark1,
    gen_sin_squared,
)
from sparsekern import kernels
from sparsekern import losses as losses_mod
from sparsekern.dual_field import monte_carlo_nodes, quadrature_grid, quadrature_nodes
from sparsekern import solver as solver_mod
from sparsekern.errors import ConfigError, DivergenceError, DomainError
from sparsekern.models import DiscreteModel

from reference import BumpField

KERNEL = KernelSpec(w_lo=0.3, w_hi=1.8, box=np.array([[0.0, 5.0]]))
QUAD = Quadrature(128, 16)


def tiny_problem(n=4, gamma=0.3, eps=0.05, seed=0):
    data = gen_remark1(n, seed)
    loss = Loss("quadratic_eps", eps, 10.0)
    return Problem(data, KERNEL, loss, ProblemVariant.full(), gamma)


def supergradient(state, prob, quad=QUAD, nodes=None):
    """y - r sign(lambda) - K (w * alpha): a supergradient of g; unbiased on Monte Carlo nodes."""
    rate = {"quadratic_eps": np.sqrt(prob.loss.epsilon), "absolute_eps": prob.loss.epsilon}
    Z, W, wts = nodes or quadrature_nodes(prob.kernel, prob.variant, quad)
    K = kernels.cross(prob.kernel, prob.samples.X, Z, W)
    smooth = K.T @ state.lam
    alpha = np.where(np.abs(smooth) > np.sqrt(2.0 * prob.gamma), smooth, 0.0)
    fit_part = prob.samples.y - rate[prob.loss.kind] * np.sign(state.lam)
    return fit_part - K @ (wts * alpha)


def test_dual_objective_zero_at_origin():
    prob = tiny_problem()
    st = DualState(lam=np.zeros(4))
    assert dual_objective(st, prob, QUAD) == 0.0


def test_dual_objective_is_minus_infinity_off_the_hinge_half_line():
    # mu maximised out: hinge's fit term is finite only where lam * y >= 0
    data = SampleSet(np.array([[1.0], [3.0]]), np.array([1.0, -1.0]), np.array([[0.0, 5.0]]))
    prob = Problem(data, KERNEL, Loss("hinge_eps", 0.05, 10.0), ProblemVariant.full(), 0.3)
    assert np.isfinite(dual_objective(DualState(lam=np.array([0.5, -0.5])), prob, QUAD))
    assert dual_objective(DualState(lam=np.array([0.5, 0.5])), prob, QUAD) == -np.inf


def test_supergradient_at_origin_matches_hand_values():
    # alpha is 0 at lambda = 0, and sign(0) = 0: d = y
    prob = tiny_problem(eps=0.05)
    d = supergradient(DualState(lam=np.zeros(4)), prob, QUAD)
    assert np.allclose(d, prob.samples.y)
    # with everything thresholded away only the fit term is left
    huge = tiny_problem(gamma=1e6, eps=0.05)
    lam = np.array([0.3, -0.2, 0.0, 1.0])
    d = supergradient(DualState(lam=lam), huge, QUAD)
    assert np.allclose(d, huge.samples.y - np.sqrt(0.05) * np.sign(lam))


def test_large_gamma_kills_integral_term():
    prob_small = tiny_problem(gamma=0.0)
    prob_large = tiny_problem(gamma=1e6)
    rng = np.random.default_rng(1)
    lam = rng.normal(0, 1, 4)
    st = DualState(lam=lam)
    g_large = dual_objective(st, prob_large, QUAD)
    # with everything thresholded away only the fit term remains
    y = prob_large.samples.y
    fit_term = float(np.sum(lam * y - np.sqrt(prob_large.loss.epsilon) * np.abs(lam)))
    assert g_large == pytest.approx(fit_term, abs=1e-12)
    assert dual_objective(st, prob_small, QUAD) <= g_large


def test_supergradient_inequality_certifies_concavity():
    data = tiny_problem().samples
    rng = np.random.default_rng(2)
    for kind in ("quadratic_eps", "absolute_eps") * 50:
        prob = Problem(data, KERNEL, Loss(kind, 0.05, 10.0), ProblemVariant.full(), 0.3)
        lam_a, lam_b = rng.normal(0, 1.5, (2, 4))
        g_a = dual_objective(DualState(lam=lam_a), prob, QUAD)
        g_b = dual_objective(DualState(lam=lam_b), prob, QUAD)
        d = supergradient(DualState(lam=lam_a), prob, QUAD)
        assert g_b <= g_a + d @ (lam_b - lam_a) + 1e-8


def test_monte_carlo_matches_quadrature_in_expectation():
    prob = tiny_problem(gamma=0.02)
    rng = np.random.default_rng(3)
    st = DualState(lam=rng.normal(0, 0.6, 4))
    d_ref = supergradient(st, prob, Quadrature(2048, 256))
    n_batches, B = 2000, 16
    acc = np.zeros((n_batches, 4))
    for b in range(n_batches):
        nodes = monte_carlo_nodes(prob.kernel, prob.variant, B, np.random.default_rng(b))
        acc[b] = supergradient(st, prob, nodes=nodes)
    se = acc.std(axis=0, ddof=1) / np.sqrt(n_batches)
    assert np.all(np.abs(acc.mean(axis=0) - d_ref) <= 3 * se)


def test_weak_duality_against_feasible_bump():
    # a fine bump field built on the generating model is primal feasible
    model = DiscreteModel(np.array([1.0]), np.array([[2.5]]), np.array([1.0]))
    data = gen_remark1(6, 4)
    loss = Loss("quadratic_eps", 0.05, 10.0)
    gamma = 0.3
    prob = Problem(data, KERNEL, loss, ProblemVariant.full(), gamma)
    bf = BumpField(model, 24, KERNEL)
    preds = np.array([bf.predict(x) for x in data.X])
    assert np.all(losses_mod.value(loss, preds, data.y) <= 0.0)
    height = bf.height
    support = len(model.amplitudes) * (2.0 / 24) ** 2
    primal = 0.5 * height**2 * support + gamma * support
    quad = Quadrature(256, 64)
    rng = np.random.default_rng(5)
    lams = [rng.normal(0, s, 6) for s in (0.3, 1.0, 3.0) for _ in range(10)]
    # the dual optimum itself, certified on the same quadrature
    config = SolverConfig(gamma=gamma, iters=500, tol=1e-4, center_nodes=256, width_nodes=64)
    state, _ = fit(data, KERNEL, loss, ProblemVariant.full(), config)
    assert state.converged
    for lam in [*lams, state.lam]:
        assert dual_objective(DualState(lam=lam), prob, quad) <= primal + 1e-3


def test_fit_single_sample_zero_label_stays_at_zero():
    data = SampleSet(np.array([[1.0]]), np.array([0.0]), np.array([[0.0, 5.0]]))
    loss = Loss("quadratic_eps", 0.01, 10.0)
    config = SolverConfig(gamma=0.1, iters=200, center_nodes=64, width_nodes=8)
    state, field = fit(data, KERNEL, loss, ProblemVariant.full(), config)
    assert np.all(state.lam == 0.0)
    # lambda = 0 is already certified: g = P = 0 and c(0, 0) = -eps
    assert state.converged and state.t == 0
    assert field.predict_batch([[1.0]], Quadrature(64, 8))[0] == 0.0
    assert losses_mod.value(loss, 0.0, 0.0) <= 0.0


def test_fit_remark1_reaches_feasibility():
    data = gen_remark1(20, 0)
    eps, gamma, tol = 1e-3, 0.2, 1e-3
    loss = Loss("quadratic_eps", eps, 10.0)
    config = SolverConfig(gamma=gamma, iters=2000, tol=tol, center_nodes=512, width_nodes=4)
    state, field = fit(data, KERNEL, loss, ProblemVariant.fixed_width(1.0), config)
    assert state.converged and 0 < state.t < config.iters
    # the certificate recomputed here from lambda alone
    Z = (np.arange(512) + 0.5)[:, None] * (5.0 / 512)
    wts = np.full(512, 5.0 / 512)
    K = np.exp(-((data.X - Z.T) ** 2) / 2.0)
    lam = field.lam
    smooth = K.T @ lam
    alpha = np.where(np.abs(smooth) > np.sqrt(2 * gamma), smooth, 0.0)
    g = lam @ data.y - np.sqrt(eps) * np.sum(np.abs(lam))
    g += wts @ np.minimum(0.0, gamma - smooth**2 / 2)
    primal = wts @ (alpha**2 / 2 + gamma * (alpha != 0))
    yhat = K @ (wts * alpha)
    assert abs(primal - g) / max(1.0, abs(primal)) <= tol + 1e-12
    assert np.max((yhat - data.y) ** 2 - eps) <= tol + 1e-12
    assert np.allclose(field.predict_batch(data.X, Quadrature(512, 4)), yhat, atol=1e-12)


def test_fit_is_bit_deterministic_under_fixed_seed():
    data = gen_remark1(6, 8)
    loss = Loss("quadratic_eps", 0.01, 10.0)
    config = SolverConfig(gamma=0.05, iters=60, tol=1e-9, center_nodes=64, width_nodes=8)
    s1, f1 = fit(data, KERNEL, loss, ProblemVariant.full(), config)
    s2, f2 = fit(data, KERNEL, loss, ProblemVariant.full(), config)
    assert np.array_equal(s1.lam, s2.lam)
    assert s1.trace == s2.trace
    assert (s1.t, s1.rel_gap, s1.max_c) == (s2.t, s2.rel_gap, s2.max_c)


def test_hinge_multipliers_stay_on_their_half_line_along_the_run():
    data = gen_remark1(5, 9)
    labels = SampleSet(data.X, np.where(data.y > 0.5, 1.0, -1.0), data.box)
    loss = Loss("hinge_eps", 0.05, 10.0)
    prob = Problem(labels, KERNEL, loss, ProblemVariant.full(), 0.05)
    for iters in (1, 2, 5, 20, 80):
        config = SolverConfig(gamma=0.05, iters=iters, tol=1e-9, center_nodes=64, width_nodes=8)
        state, _ = fit(labels, KERNEL, loss, ProblemVariant.full(), config)
        assert np.all(state.lam * labels.y >= 0.0)
        assert np.isfinite(dual_objective(state, prob, Quadrature(64, 8)))


def test_fit_divergence_raises_with_diagnostics():
    # labels near the float range overflow the first certificate; it raises,
    # and leaks no RuntimeWarning
    data = gen_remark1(6, 10)
    huge = SampleSet(data.X, data.y * 1e200, data.box)
    loss = Loss("quadratic_eps", 1e-3, 1e6)
    config = SolverConfig(gamma=0.01, iters=500, center_nodes=64, width_nodes=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match="iteration 0") as err:
            fit(huge, KERNEL, loss, ProblemVariant.full(), config)
    assert err.value.iteration == 0 and err.value.lam_norm == 0.0


def test_running_max_of_trace_is_monotone():
    # the safeguard keeps g of the iterate non-decreasing, so a larger cap
    # never returns a lower dual value
    data = gen_remark1(6, 11)
    loss = Loss("quadratic_eps", 0.01, 10.0)
    prob = Problem(data, KERNEL, loss, ProblemVariant.full(), 0.05)
    values = []
    for iters in range(1, 41):
        config = SolverConfig(gamma=0.05, iters=iters, tol=1e-12, center_nodes=64, width_nodes=8)
        state, _ = fit(data, KERNEL, loss, ProblemVariant.full(), config)
        assert state.t == iters and not state.converged
        values.append(dual_objective(state, prob, Quadrature(64, 8)))
    assert np.all(np.diff(values) >= 0)
    assert values[-1] > values[0]
    # steps 0 and 40 of the 40-step run: the first and the last step are traced
    assert [row[0] for row in state.trace] == [0, 40]
    assert state.trace[-1][1] == pytest.approx(values[-1], rel=1e-12)


def test_trace_file_columns():
    # the rows sparsekern fit writes to its trace file, under the header
    # t,g,rel_gap,max_violation,support_fraction
    data = gen_remark1(6, 12)
    loss = Loss("quadratic_eps", 0.01, 10.0)
    config = SolverConfig(gamma=0.05, iters=120, tol=1e-12, center_nodes=64, width_nodes=8)
    state, _ = fit(data, KERNEL, loss, ProblemVariant.full(), config)
    rows = state.trace
    assert all(len(r) == 5 for r in rows)
    assert [r[0] for r in rows] == [0, 50, 100, 120]
    assert all(r[2] >= 0 and r[3] >= 0 and 0 <= r[4] <= 1 for r in rows)


def test_solver_config_json_round_trip():
    config = SolverConfig(gamma=1.0, iters=10, tol=1e-4, width_nodes=12)
    assert list(config.to_dict()) == [
        "gamma", "iters", "tol", "center_nodes", "width_nodes",
    ]
    assert SolverConfig.from_dict(config.to_dict()) == config


def test_solver_config_validation():
    with pytest.raises(ConfigError):
        SolverConfig(gamma=-1, iters=10)
    with pytest.raises(ConfigError):
        SolverConfig(gamma=1, iters=0)
    with pytest.raises(ConfigError):
        SolverConfig(gamma=1, iters=10, tol=0.0)
    retired = (
        "eta_mu", "mu_floor", "step_decay", "integrator", "eta_lambda", "batch", "seed",
        "trace_every",
    )
    for key in ("iter", *retired):
        with pytest.raises(ConfigError, match=key):
            SolverConfig.from_dict({"gamma": 1.0, "iters": 10, key: 1})


def assert_certificate_terms_match_the_dense_pass(op, K, wts, lam, share):
    """certificate_terms at a gamma with ``share`` of the nodes on the support, vs K (w s 1_on)."""
    N, G = K.shape
    exact = K.T @ lam
    a = np.sort(np.abs(exact))
    # tau midway between two neighbouring |s|: no node sits near it
    off = G - round(share * G)
    tau = 2.0 * a[-1] if off == G else 0.5 * a[0] if off == 0 else 0.5 * (a[off - 1] + a[off])
    gamma = 0.5 * tau * tau
    surf = op.surface(lam)
    # every surface is certified from a block: a small K's one block of every
    # node, else the smaller side of the support, at most G/2 nodes when exact
    block = op._gather(surf, gamma)
    if op._small:
        assert block.nodes == slice(None) and block.on_side
    else:
        assert block is not None
        assert surf.scale > 0.0 or np.size(block.nodes) <= G // 2
    values = surf.s.copy()
    mass, sq, support, yhat = op.certificate_terms(surf, gamma)
    assert np.array_equal(surf.s, values)  # the ascent reads the surface again
    on = np.abs(exact) > tau
    ws = wts * exact
    assert support == np.count_nonzero(on) / G
    assert abs(mass - wts @ on) <= G * EPS * wts.sum()
    assert abs(sq - (ws * on) @ exact) <= G * EPS * (ws @ exact)
    # the complement form subtracts from A lam: its error grows with |K| w |K^T| |lam|
    scale = np.abs(K) @ (wts * (np.abs(K.T) @ np.abs(lam))) + np.abs(ws).sum()
    assert np.all(np.abs(yhat - K @ (ws * on)) <= (N + G) * EPS * scale)


def test_streamed_kernel_matrix_matches_the_held_one(monkeypatch):
    data = gen_remark1(7, 13)
    Z, W, wts = quadrature_nodes(KERNEL, ProblemVariant.full(), Quadrature(40, 8))
    grid = quadrature_grid(KERNEL, ProblemVariant.full(), Quadrature(40, 8))
    K = kernels.cross(KERNEL, data.X, Z, W)
    # 7 x 320 entries: below _GATHER_MIN_ENTRIES, one block of every node
    small = solver_mod._NodeMatrix(KERNEL, data.X, *grid)
    # gather even at this size
    monkeypatch.setattr(solver_mod, "_GATHER_MIN_ENTRIES", 0)
    held = solver_mod._NodeMatrix(KERNEL, data.X, *grid)
    assert held._rows is not None and held._basis is None
    assert small._small and not held._small and small._basis is None
    lam = np.linspace(-1.0, 1.0, 7)
    # a multiplier of norm 1e4
    big = np.cos(3.0 * np.arange(7.0))
    big *= 1e4 / np.linalg.norm(big)
    one_block = small._block
    for op in (held, small):
        assert np.allclose(op.surface(lam).s, K.T @ lam, rtol=1e-13, atol=1e-13)
        assert op.surface(lam).scale == 0.0
        # the step 1/L rests on the exact spectral norm of K diag(w) K^T
        assert op.lipschitz == pytest.approx(np.linalg.norm((K * wts) @ K.T, 2), rel=1e-12)
        # gathered complement up to half the nodes, gathered support past it
        for share in (0.0, 0.15, 0.25, 0.3, 0.4, 0.5, 0.75, 0.85, 1.0):
            assert_certificate_terms_match_the_dense_pass(op, K, wts, lam, share)
        assert_certificate_terms_match_the_dense_pass(op, K, wts, big, 0.8)
    # a held K keeps its gathered block across steps; a small K keeps its one
    assert held._block is not None and small._block is one_block
    # past _PRECOMPUTE_LIMIT, K is factored from chunked reads or refused:
    # this one's h = 1 leaves no rank to factor at
    monkeypatch.setattr(solver_mod, "_PRECOMPUTE_LIMIT", 7 * 45)
    with pytest.raises(ConfigError, match="center_nodes"):
        solver_mod._NodeMatrix(KERNEL, data.X, *grid)
    # cli_fit's low-rank K, held at N G entries and read in blocks past them,
    # factors to the same bits
    monkeypatch.setattr(solver_mod, "_PRECOMPUTE_LIMIT", 300 * 96 * 32)
    factored, K, wts, _ = cli_fit_operator(1)
    N, G = K.shape
    monkeypatch.setattr(solver_mod, "_PRECOMPUTE_LIMIT", N * G - 1)
    read = cli_fit_operator(1)[0]
    assert read._basis is not None and read._rows.size <= N * G - 1
    for name in ("_basis", "_rows", "_gram", "_cols32"):
        assert np.array_equal(getattr(read, name), getattr(factored, name)), name
    assert read.lipschitz == factored.lipschitz
    lam = np.linspace(-1.0, 1.0, N)
    big = np.cos(3.0 * np.arange(float(N)))
    big *= 1e4 / np.linalg.norm(big)
    for share in (0.0, 0.15, 0.25, 0.3, 0.4, 0.5, 0.75, 0.85, 1.0):
        assert_certificate_terms_match_the_dense_pass(read, K, wts, lam, share)
    assert_certificate_terms_match_the_dense_pass(read, K, wts, big, 0.8)
    # a factor whose M would not be held either is refused
    monkeypatch.setattr(solver_mod, "_PRECOMPUTE_LIMIT", read._rows.size - 1)
    with pytest.raises(ConfigError, match="width_nodes"):
        cli_fit_operator(1)


def grid_variants(p):
    """(kernel, samples X, variant) for each variant kind on a p-D box."""
    kernel = KernelSpec(w_lo=0.3, w_hi=1.8, box=np.array([[0.0, 5.0]] * p))
    X = np.random.default_rng(p).uniform(0.0, 5.0, (20, p))
    centers = np.random.default_rng(p + 10).uniform(0.0, 5.0, (30, p))
    variants = ProblemVariant.full(), ProblemVariant.fixed_width(0.7), ProblemVariant.fixed_centers(centers)
    for variant in variants:
        yield kernel, X, variant


@pytest.mark.parametrize("p", [1, 2])
def test_held_kernel_matrix_is_one_grid_build(p, monkeypatch):
    # K^T from the grid's factors, each center's distances once for all its
    # widths, is the kernels.cross of the expanded nodes transposed, bit for bit
    for kernel, X, variant in grid_variants(p):
        quad = Quadrature(40 if p == 1 else 12, 16)
        Z, W, _ = quadrature_nodes(kernel, variant, quad)
        builds, reads = [], []
        grid, cross = kernels.grid, kernels.cross
        monkeypatch.setattr(kernels, "grid", lambda *a, **kw: builds.append(a) or grid(*a, **kw))
        monkeypatch.setattr(kernels, "cross", lambda *a, **kw: reads.append(a) or cross(*a, **kw))
        op = solver_mod._NodeMatrix(kernel, X, *quadrature_grid(kernel, variant, quad))
        monkeypatch.undo()
        assert op._basis is None and len(builds) == 1 and not reads, variant.kind
        # the full grid has more nodes than one block of the old 512-node build
        assert variant.kind != "full" or Z.shape[0] > 512
        assert np.array_equal(op._rows, kernels.cross(kernel, X, Z, W).T), variant.kind
    # a width outside the domain is named, as kernels.cross names it
    with pytest.raises(DomainError, match=r"width 2\.5 outside"):
        solver_mod._NodeMatrix(kernel, X, X[:3], np.array([0.5, 2.5]), 1.0)


@pytest.mark.parametrize("p", [1, 2])
def test_block_and_probe_reads_equal_the_held_rows(p):
    # the reads of a K too large to hold: every _CHECK_BLOCK part and every
    # part of the stride-8 probe, from the factors, equal the held rows
    for kernel, X, variant in grid_variants(p):
        # 40 widths: blocks start and end inside a center
        quad = Quadrature(1100 if p == 1 else 36, 40)
        op = solver_mod._NodeMatrix(kernel, X, *quadrature_grid(kernel, variant, quad))
        G = op._rows.shape[0]
        stride = solver_mod._PROBE_STRIDE
        B = solver_mod._CHECK_BLOCK
        parts = [slice(j, j + B) for j in range(0, G, B)]
        parts += [slice(j, j + stride * B, stride) for j in range(0, G, stride * B)]
        assert G > stride * B
        for part in parts:
            assert np.array_equal(op._read(part), op._rows[part]), (variant.kind, part)


def test_hinge_needs_plus_minus_one_labels():
    # phi = (1 - eps) lam y holds for labels +-1 only; 0/1 labels are refused
    data = gen_remark1(5, 14)
    labels = SampleSet(data.X, np.where(data.y > 0.5, 1.0, 0.0), data.box)
    config = SolverConfig(gamma=0.05, iters=5)
    with pytest.raises(DomainError, match="labels"):
        fit(labels, KERNEL, Loss("hinge_eps", 0.05, 10.0), ProblemVariant.full(), config)


EPS = np.finfo(float).eps


def cli_fit_operator(seed):
    """The 300-point, 96 x 32 problem of the cli_fit benchmark: (op, K, wts, L)."""
    data, _ = gen_mixed_gauss(10, 0.453, 300, np.sqrt(1e-3), seed)
    kernel = KernelSpec(w_lo=0.1, w_hi=1.0, box=data.box)
    Z, W, wts = quadrature_nodes(kernel, ProblemVariant.full(), Quadrature(96, 32))
    grid = quadrature_grid(kernel, ProblemVariant.full(), Quadrature(96, 32))
    op = solver_mod._NodeMatrix(kernel, data.X, *grid)
    K = kernels.cross(kernel, data.X, Z, W)
    return op, K, wts, op.lipschitz


def test_factored_products_match_the_dense_ones_within_rounding(monkeypatch):
    gathering, K, wts, _ = cli_fit_operator(1)
    # the same K below _GATHER_MIN_ENTRIES: one block of every node, read from M
    monkeypatch.setattr(solver_mod, "_GATHER_MIN_ENTRIES", 10**9)
    small = cli_fit_operator(1)[0]
    N, G = K.shape
    for op in (gathering, small):
        assert op._basis is not None and op._rows.shape[1] < N
        # ||K diag(w) K^T|| = ||M^T diag(w) M||: P has orthonormal rows
        assert op.lipschitz == pytest.approx(np.linalg.norm((K * wts) @ K.T, 2), rel=1e-12)
        lam = np.random.default_rng(0).normal(0.0, 1.0, N)
        assert op.surface(lam).s.dtype == np.float32
        # gathered complement up to half the nodes, gathered support past it,
        # each with the undecided nodes
        for share in (0.0, 0.05, 0.2, 0.3, 0.4, 0.5, 0.8, 1.0):
            assert_certificate_terms_match_the_dense_pass(op, K, wts, lam, share)
    assert small._small and small._block.rows is small._rows


@pytest.mark.parametrize("seed", [1, 41, 42, 43])
def test_factor_meets_its_entrywise_bound(seed):
    op, K, _, _ = cli_fit_operator(seed)
    N, G = K.shape
    M, P = op._rows, op._basis
    assert P is not None and M.shape[1] == P.shape[0] < N * G // (2 * (N + G))
    assert np.max(np.abs(P @ P.T - np.eye(P.shape[0]))) <= N * EPS
    assert np.max(np.abs(K.T - M @ P)) <= N * EPS


def test_factor_keeps_k_dense_when_its_one_rank_misses_the_bound(monkeypatch):
    # a sketch whose singular values under-count K's rank reads r = 40, and
    # no rank-40 factor meets max|K^T - M P| <= N eps
    svd = np.linalg.svd

    def short_svd(a, **kw):
        U, s, Vt = svd(a, **kw)
        return U, np.where(np.arange(s.size) < 40, s, 0.0), Vt

    monkeypatch.setattr(np.linalg, "svd", short_svd)
    op, K, _, _ = cli_fit_operator(1)
    assert op._basis is None and np.array_equal(op._rows, K.T)


def _desk_problems():
    """Rep 0 of every desk study: (name, samples, kernel, variant, config)."""
    from sparsekern import experiments as ex

    remark1 = ProblemVariant.fixed_width(1.0)
    yield "remark1", gen_remark1(20, 0), ex.REMARK1_KERNEL, remark1, ex.REMARK1_CONFIG
    train, _ = ex._mixed_gauss_draw(0, 100, 500)
    pii2 = ProblemVariant.fixed_centers(train.X)
    yield "grid_vs_pii2", train, ex.MIXED_KERNEL, pii2, ex.PII2_CONFIG
    yield "pii_full", train, ex.MIXED_KERNEL, ProblemVariant.full(), ex.PII_FULL_CONFIG
    train, _ = gen_mixed_gauss(5, 0.5, 20, ex.MIXED_NOISE_SD, 0)
    komp = ProblemVariant.fixed_width(0.5)
    yield "komp_sparsity", train, ex.KOMP_KERNEL, komp, ex.KOMP_SPARSITY_CONFIG
    for n in (51, 101, 201):
        train = gen_sin_squared(n, ex.SIN_NOISE_SD, 0, grid=True)
        yield f"sample_stability n={n}", train, ex.SIN_KERNEL, ProblemVariant.full(), ex.SIN_CONFIG


def test_factoring_rule_keeps_the_desk_studies_dense_and_factors_cli_fit():
    for name, train, kernel, variant, config in _desk_problems():
        quad = Quadrature(config.center_nodes, config.width_nodes)
        Z, W, wts = quadrature_nodes(kernel, variant, quad)
        op = solver_mod._NodeMatrix(kernel, train.X, *quadrature_grid(kernel, variant, quad))
        assert op._basis is None and op._rows.shape == (Z.shape[0], train.n), name
    assert cli_fit_operator(1)[0]._basis is not None


@pytest.fixture
def factored(monkeypatch):
    """The results of the test's _NodeMatrix._factor calls, in order."""
    results = []
    factor = solver_mod._NodeMatrix._factor

    def recorded(op):
        results.append(factor(op))
        return results[-1]

    monkeypatch.setattr(solver_mod._NodeMatrix, "_factor", recorded)
    return results


def test_factored_fit_certificate_matches_a_dense_recomputation(factored):
    data, _ = gen_mixed_gauss(10, 0.453, 300, np.sqrt(1e-3), 1)
    kernel = KernelSpec(w_lo=0.1, w_hi=1.0, box=data.box)
    loss = losses_mod.default_loss("quadratic_eps", data.y)
    config = SolverConfig(gamma=0.2, iters=200, center_nodes=96, width_nodes=32)
    state, _ = fit(data, kernel, loss, ProblemVariant.full(), config)
    assert factored == [True] and state.t == 200
    variant = ProblemVariant.full()
    _, _, rel_gap, max_c = dense_certificate(state.lam, data, kernel, loss, variant, config)
    assert state.rel_gap == pytest.approx(rel_gap, rel=1e-9)
    assert state.max_c == pytest.approx(max_c, rel=1e-9)


def test_factored_fit_certifies_at_a_feasible_epsilon(factored):
    # the 300-point, 96 x 32 factored problem at eps = 2 sigma^2 ln(2N),
    # about 0.0128 for sigma^2 = 1e-3: the fit certifies well before its cap
    data, _ = gen_mixed_gauss(10, 0.453, 300, np.sqrt(1e-3), 1)
    kernel = KernelSpec(w_lo=0.1, w_hi=1.0, box=data.box)
    loss = losses_mod.default_loss("quadratic_eps", data.y, 2e-3 * np.log(2 * data.n))
    config = SolverConfig(gamma=0.2, iters=5000, center_nodes=96, width_nodes=32)
    state, _ = fit(data, kernel, loss, ProblemVariant.full(), config)
    assert factored == [True]
    assert state.converged and state.t < config.iters
    assert state.rel_gap <= config.tol and state.max_c <= config.tol


def dense_certificate(lam, data, kernel, loss, variant, config):
    """(g, P, rel_gap, max_c) of lambda, from one dense K on the config's quadrature."""
    quad = Quadrature(config.center_nodes, config.width_nodes)
    Z, W, wts = quadrature_nodes(kernel, variant, quad)
    K = kernels.cross(kernel, data.X, Z, W)
    smooth = K.T @ lam
    alpha = np.where(np.abs(smooth) > np.sqrt(2 * config.gamma), smooth, 0.0)
    g = losses_mod.phi(loss, lam, data.y)
    g += wts @ np.minimum(0.0, config.gamma - smooth**2 / 2)
    primal = wts @ (alpha**2 / 2 + config.gamma * (alpha != 0))
    max_c = np.max(losses_mod.value(loss, K @ (wts * alpha), data.y))
    return g, primal, abs(primal - g) / max(1.0, abs(primal)), max_c


@functools.cache
def _cli_fit_operator_seed1():
    return cli_fit_operator(1)


@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.floats(-2.0, 2.0),
    beta=st.floats(0.0, 1.0, exclude_max=True),
    place=st.sampled_from(["anywhere", "near", "between", "least"]),
    node=st.integers(0, 96 * 32 - 1),
    offset=st.floats(-1e-9, 1e-9),
)
@settings(max_examples=80, deadline=None)
def test_float32_classification_equals_the_float64_pass(seed, size, beta, place, node, offset):
    op, K, wts, _ = _cli_fit_operator_seed1()
    N, G = K.shape
    gamma = 0.2
    tau = np.sqrt(2.0 * gamma)
    rng = np.random.default_rng(seed)
    lam, lam_prev = rng.normal(0.0, 10.0**size, (2, N))
    if place == "near":
        # rescale both points so that node's abar at the extrapolated point is tau + offset
        at_node = K[:, node] @ (lam + beta * (lam - lam_prev))
        lam, lam_prev = ((tau + offset) / abs(at_node)) * np.array([lam, lam_prev])
    here, prev = op.surface(lam), op.surface(lam_prev)
    surf = op.extrapolate(here, prev, beta)
    assert surf.s.dtype == np.float32
    # the extrapolated point carries the bound of both passes
    assert surf.scale == ((1.0 + beta) * here.scale + beta * prev.scale if beta else here.scale)
    if place == "least":
        # the node of least |abar|: its float32 error, set by scale, is largest beside tau
        node = int(np.argmin(np.abs(op._rows @ surf.u)))
    if place in ("between", "least"):
        # the threshold between node's float32 and float64 values: float32 alone errs there
        tau = 0.5 * (abs(float(surf.s[node])) + abs(op._rows[node] @ surf.u))
        gamma = 0.5 * tau * tau
    exact = op._rows @ surf.u  # the float64 pass
    on = np.abs(exact) > tau
    # every surface gathers a block; off it the float32 decision is the float64 one
    nodes, on_side, _ = op._gather(surf, gamma)
    rest = np.ones(G, dtype=bool)
    rest[nodes] = False
    assert np.all(on[rest] != on_side)
    mass, sq, support, yhat = op.certificate_terms(surf, gamma)
    assert support == np.count_nonzero(on) / G
    ws = wts * exact
    assert abs(mass - wts @ on) <= N * EPS * wts.sum()
    assert abs(sq - (ws * on) @ exact) <= N * EPS * (ws @ exact)
    # rounding, plus the factor's entrywise error max|K^T - M P| <= N eps
    bound = N * EPS * (np.abs(K) @ np.abs(ws) + np.abs(ws).sum())
    assert np.all(np.abs(yhat - K @ (ws * on)) <= bound)
    integral = wts @ np.minimum(0.0, gamma - exact**2 / 2)
    assert abs(op.integral(surf, gamma) - integral) <= N * EPS * (ws @ exact)


def test_float32_overflow_takes_the_float64_pass():
    # pytest turns a RuntimeWarning into an error: none may come from the cast
    op, K, wts, _ = _cli_fit_operator_seed1()
    N = K.shape[0]
    lam = 1e40 * np.cos(np.arange(N))
    surf = op.surface(lam)
    assert surf.scale == 0.0 and surf.s.dtype == np.float64
    assert np.allclose(surf.s, K.T @ lam, rtol=1e-12, atol=1e-12 * np.abs(K.T @ lam).max())
    mixed = op.extrapolate(surf, op.surface(lam / 1e40), 0.5)
    assert mixed.scale == 0.0
    for point in (surf, mixed):
        on = np.abs(point.s) > np.sqrt(0.4)
        mass, _, support, _ = op.certificate_terms(point, 0.2)
        assert support == np.count_nonzero(on) / on.size and mass == pytest.approx(wts @ on)
    nan = op.surface(np.full(N, np.nan))
    assert nan.scale == 0.0 and np.all(np.isnan(nan.s))


def test_float32_pass_reads_only_the_columns_float32_resolves():
    op, K, _, _ = _cli_fit_operator_seed1()
    M = op._rows
    q, r = op._cols32.shape[0], M.shape[1]
    R = np.linalg.norm(M, axis=1).max()
    assert 0 < q < r
    # the dropped tail is below float32's resolution of the largest row ...
    assert np.linalg.norm(M[:, q:], axis=1).max() <= 2.0**-24 * R
    # ... and q is the fewest columns for which it is
    assert np.linalg.norm(M[:, q - 1 :], axis=1).max() > 2.0**-24 * R


def test_dropped_tail_is_within_the_float32_bound():
    # q's rule gives R_tail ||u[q:]|| <= 2^-24 R ||u|| = 2^-24 scale, which
    # the second gamma_{q+6} scale of the bound covers
    op, _, _, _ = _cli_fit_operator_seed1()
    M = op._rows
    q, r = op._cols32.shape[0], M.shape[1]
    tail = np.linalg.norm(M[:, q:], axis=1).max()
    rng = np.random.default_rng(4)
    heavy = np.zeros(r)
    heavy[q:] = rng.normal(0.0, 1.0, r - q)
    for u in (rng.normal(0.0, 1.0, r), heavy, np.eye(r)[-1], 1e30 * heavy):
        surf = op._surface(u)
        assert surf.s.dtype == np.float32
        assert tail * np.linalg.norm(u[q:]) <= 2.0**-24 * surf.scale
        assert tail * np.linalg.norm(u[q:]) <= (op._f32_rel / 2.0) * surf.scale


def pii_full_operator():
    """The dense 100-point, 6144-node problem of pii_full rep 0: (op, K, wts)."""
    from sparsekern import experiments as ex

    train, _ = ex._mixed_gauss_draw(0, 100, 500)
    config = ex.PII_FULL_CONFIG
    quad = Quadrature(config.center_nodes, config.width_nodes)
    Z, W, wts = quadrature_nodes(ex.MIXED_KERNEL, ProblemVariant.full(), quad)
    grid = quadrature_grid(ex.MIXED_KERNEL, ProblemVariant.full(), quad)
    op = solver_mod._NodeMatrix(ex.MIXED_KERNEL, train.X, *grid)
    return op, kernels.cross(ex.MIXED_KERNEL, train.X, Z, W), wts


def test_zero_surface_is_the_surface_of_zero_multipliers():
    # _start's lambda = 0 candidate takes it without a pass
    for op in (pii_full_operator()[0], cli_fit_operator(1)[0]):
        got, want = op.zero_surface(), op.surface(np.zeros(op._args[1].shape[0]))
        assert got.s.dtype == want.s.dtype and got.scale == want.scale
        assert np.array_equal(got.u, want.u) and np.array_equal(got.s, want.s)


def test_kept_block_gives_the_float64_terms_along_a_sequence_of_surfaces():
    # the kept block is state: one operator goes through surfaces that reuse
    # it, gather it again on the same side, and switch between the support
    # and its complement; every call must give the float64 pass's terms,
    # and every gather must hold exactly the needed nodes.
    # Factored (cli_fit, float32 surfaces) and dense (pii_full, exact ones)
    for op, K, wts in (cli_fit_operator(7)[:3], pii_full_operator()):
        N, G = K.shape
        assert (op._basis is None) == (G == 6144)
        gamma = 0.2
        tau = np.sqrt(2.0 * gamma)
        lam0 = np.random.default_rng(3).normal(0.0, 1.0, N)
        a0 = np.abs(K.T @ lam0)
        # a scale that puts a share p of the nodes on the support, and the
        # smaller side within G/4 nodes.  A step up of 0.1% adds nodes to the
        # support: gathered on the support, one falls outside the block;
        # gathered on the complement, the block still holds every one
        scales = [tau / np.quantile(a0, 1.0 - p) for p in (0.05, 0.2, 0.95, 0.8, 0.05)]
        scales = [c * f for c in scales for f in (1.0, 1.001)][:-1]
        events = []
        for c in scales:
            lam = c * lam0
            surf = op.surface(lam)
            assert surf.s.dtype == (np.float64 if op._basis is None else np.float32)
            before = op._block
            mass, sq, support, yhat = op.certificate_terms(surf, gamma)
            block = op._block
            if block is before:
                events.append("reuse")
            elif before is not None and before.on_side == block.on_side:
                events.append("regather")
            else:
                events.append("new side")
            exact = op._rows @ surf.u  # the float64 pass
            on = np.abs(exact) > tau
            rest = np.ones(G, dtype=bool)
            rest[block.nodes] = False
            assert np.all(on[rest] != block.on_side)
            if block is not before:
                # the needed nodes: the block's side of the float64 pass and
                # the undecided, within the float32 error bound of tau
                side = on == block.on_side
                extra = np.setdiff1d(block.nodes, np.flatnonzero(side))
                assert block.nodes.size - extra.size == np.count_nonzero(side)
                if op._basis is None:
                    assert extra.size == 0
                else:
                    bound = 2.0 * (op._f32_rel * surf.scale + op._f32_floor)
                    assert np.all(np.abs(np.abs(exact[extra]) - tau) <= bound)
            ws = wts * exact
            assert support == np.count_nonzero(on) / G
            assert abs(mass - wts @ on) <= N * EPS * wts.sum()
            assert abs(sq - (ws * on) @ exact) <= N * EPS * (ws @ exact)
            bound = N * EPS * (np.abs(K) @ np.abs(ws) + np.abs(ws).sum())
            assert np.all(np.abs(yhat - K @ (ws * on)) <= bound)
        assert events == [
            "new side", "regather", "regather", "regather",
            "new side", "reuse", "regather", "reuse", "new side",
        ]


def test_pii_full_rep0_starts_at_the_candidate_of_largest_g():
    # the t = 0 certificate is the start's: the largest g of lambda = 0 and
    # the spectral path, each g recomputed here from lambda alone
    from sparsekern import experiments as ex

    train, _ = ex._mixed_gauss_draw(0, 100, 500)
    loss = losses_mod.default_loss("quadratic_eps", train.y)
    config, variant = ex.PII_FULL_CONFIG, ProblemVariant.full()
    state, _ = fit(train, ex.MIXED_KERNEL, loss, variant, config)
    op = pii_full_operator()[0]
    path = op.spectral_path(train.y)
    assert len(path) == len(solver_mod._START_CUTOFFS) and op._eig is None
    g = [dense_certificate(lam, train, ex.MIXED_KERNEL, loss, variant, config)[0] for lam in path]
    t, g0, *_ = state.trace[0]
    assert t == 0 and g0 > 0.0
    assert g0 == pytest.approx(max(g), rel=1e-12)


@pytest.mark.parametrize("rep", range(5))
def test_pii_full_fits_from_the_start_certify(rep):
    from sparsekern import experiments as ex

    train, _ = ex._mixed_gauss_draw(rep, 100, 500)
    loss = losses_mod.default_loss("quadratic_eps", train.y)
    config, variant = ex.PII_FULL_CONFIG, ProblemVariant.full()
    state, _ = fit(train, ex.MIXED_KERNEL, loss, variant, config)
    assert state.converged and state.trace[0][1] > 0.0  # started off lambda = 0
    cert = dense_certificate(state.lam, train, ex.MIXED_KERNEL, loss, variant, config)
    g, primal, rel_gap, max_c = cert
    assert state.g == pytest.approx(g, rel=1e-9)
    assert state.primal == pytest.approx(primal, rel=1e-9)
    assert rel_gap <= config.tol and max_c <= config.tol
    assert state.max_c == pytest.approx(max_c, rel=1e-9)


def test_hinge_start_stays_on_the_half_line():
    # the spectral path's solves leave lam y >= 0; phi is -inf there, so
    # the start never takes one
    rng = np.random.default_rng(5)
    X = np.sort(rng.uniform(0.0, 5.0, (30, 1)), axis=0)
    labels = SampleSet(X, np.where(np.sin(2.0 * X[:, 0]) > 0.0, 1.0, -1.0), np.array([[0.0, 5.0]]))
    loss = Loss("hinge_eps", 0.05, 10.0)
    variant, quad = ProblemVariant.full(), Quadrature(64, 8)
    prob = Problem(labels, KERNEL, loss, variant, 0.05)
    grid = quadrature_grid(KERNEL, variant, quad)
    off = [lam for lam in solver_mod._NodeMatrix(KERNEL, X, *grid).spectral_path(labels.y)
           if np.any(lam * labels.y < 0.0)]
    assert off
    assert all(dual_objective(DualState(lam=lam), prob, quad) == -np.inf for lam in off)
    lam, _, g = solver_mod._start(prob, solver_mod._NodeMatrix(KERNEL, X, *grid))
    assert np.all(lam * labels.y >= 0.0) and g >= 0.0
    config = SolverConfig(gamma=0.05, iters=50, center_nodes=64, width_nodes=8)
    state, _ = fit(labels, KERNEL, loss, variant, config)
    t, g0, *_ = state.trace[0]
    assert t == 0 and g0 == pytest.approx(g, rel=1e-12, abs=1e-12)
