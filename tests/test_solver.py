import warnings

import numpy as np
import pytest

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
    bump_field,
    dual_objective,
    fit,
    gen_mixed_gauss,
    gen_remark1,
    gen_sin_squared,
)
from sparsekern import kernels
from sparsekern import losses as losses_mod
from sparsekern.dual_field import monte_carlo_nodes, quadrature_nodes
from sparsekern import solver as solver_mod
from sparsekern.errors import ConfigError, DivergenceError, DomainError
from sparsekern.models import DiscreteModel

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
    bf = bump_field(model, 24, KERNEL)
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
    assert field.predict([1.0], Quadrature(64, 8)) == 0.0
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
    config = SolverConfig(
        gamma=0.05, iters=60, tol=1e-9, center_nodes=64, width_nodes=8, trace_every=10
    )
    s1, f1 = fit(data, KERNEL, loss, ProblemVariant.full(), config)
    s2, f2 = fit(data, KERNEL, loss, ProblemVariant.full(), config)
    assert np.array_equal(s1.lam, s2.lam)
    assert s1.g_trace == s2.g_trace
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
        config = SolverConfig(
            gamma=0.05, iters=iters, tol=1e-12, center_nodes=64, width_nodes=8, trace_every=1
        )
        state, _ = fit(data, KERNEL, loss, ProblemVariant.full(), config)
        assert state.t == iters and not state.converged
        values.append(dual_objective(state, prob, Quadrature(64, 8)))
    assert np.all(np.diff(values) >= 0)
    assert values[-1] > values[0]
    gs = [g for _, g in state.g_trace]
    assert len(gs) == 41 and gs[-1] == pytest.approx(values[-1], rel=1e-12)


def test_trace_file_columns(tmp_path):
    data = gen_remark1(6, 12)
    loss = Loss("quadratic_eps", 0.01, 10.0)
    config = SolverConfig(
        gamma=0.05, iters=50, tol=1e-12, center_nodes=64, width_nodes=8, trace_every=10
    )
    path = tmp_path / "trace.csv"
    fit(data, KERNEL, loss, ProblemVariant.full(), config, trace_path=path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,g,rel_gap,max_violation,support_fraction"
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert [r[0] for r in rows] == [0, 10, 20, 30, 40, 50]
    assert all(r[2] >= 0 and r[3] >= 0 and 0 <= r[4] <= 1 for r in rows)


def test_solver_config_json_round_trip():
    config = SolverConfig(gamma=1.0, iters=10, tol=1e-4, width_nodes=12)
    assert list(config.to_dict()) == [
        "gamma", "iters", "tol", "center_nodes", "width_nodes", "trace_every",
    ]
    assert SolverConfig.from_dict(config.to_dict()) == config


def test_solver_config_validation():
    with pytest.raises(ConfigError):
        SolverConfig(gamma=-1, iters=10)
    with pytest.raises(ConfigError):
        SolverConfig(gamma=1, iters=0)
    with pytest.raises(ConfigError):
        SolverConfig(gamma=1, iters=10, tol=0.0)
    retired = ("eta_mu", "mu_floor", "step_decay", "integrator", "eta_lambda", "batch", "seed")
    for key in ("iter", *retired):
        with pytest.raises(ConfigError, match=key):
            SolverConfig.from_dict({"gamma": 1.0, "iters": 10, key: 1})


def test_streamed_kernel_matrix_matches_the_held_one(monkeypatch):
    data = gen_remark1(7, 13)
    Z, W, wts = quadrature_nodes(KERNEL, ProblemVariant.full(), Quadrature(40, 8))
    K = kernels.cross(KERNEL, data.X, Z, W)
    held = solver_mod._NodeMatrix(KERNEL, data.X, Z, W)
    # at most 7 * 45 entries per chunk: 8 chunks of the 320 nodes
    monkeypatch.setattr(solver_mod, "_PRECOMPUTE_LIMIT", 7 * 45)
    streamed = solver_mod._NodeMatrix(KERNEL, data.X, Z, W)
    # gather even at this size, which a full pass would otherwise serve
    monkeypatch.setattr(solver_mod, "_GATHER_MIN_ENTRIES", 0)
    assert held._rows is not None and streamed._rows is None
    lam, v = np.linspace(-1.0, 1.0, 7), np.cos(np.arange(320.0))
    # a multiplier of norm 1e4, on all but the 60 nodes where its |abar| is least
    big = np.cos(3.0 * np.arange(7.0))
    big *= 1e4 / np.linalg.norm(big)
    on_most = np.ones(320, dtype=bool)
    on_most[np.argsort(np.abs(K.T @ big))[:60]] = False
    for op in (held, streamed):
        assert np.allclose(op.rmatvec(lam), K.T @ lam, rtol=1e-13, atol=1e-13)
        assert np.allclose(op.matvec(v), K @ v, rtol=1e-13, atol=1e-13)
        # the step 1/L rests on the exact spectral norm of K diag(w) K^T
        assert op.norm(wts) == pytest.approx(np.linalg.norm((K * wts) @ K.T, 2), rel=1e-12)
        # yhat = K (w s 1_S): gathered support, full pass, gathered complement
        ws = wts * (K.T @ lam)
        for size in (0, 50, 80, 160, 240, 270, 320):
            on = np.zeros(320, dtype=bool)
            on[np.random.default_rng(size).permutation(320)[:size]] = True
            want = K @ (ws * on)
            assert np.allclose(op.support_matvec(lam, ws, on), want, rtol=1e-12, atol=1e-12)
        # the complement form subtracts from A lam: its error grows with ||A|| ||lam||
        ws_big = wts * (K.T @ big)
        want = K @ (ws_big * on_most)
        err = np.linalg.norm(op.support_matvec(big, ws_big, on_most) - want)
        assert err <= 1e-9 * np.linalg.norm(want)


def test_hinge_needs_plus_minus_one_labels():
    # phi = (1 - eps) lam y holds for labels +-1 only; 0/1 labels are refused
    data = gen_remark1(5, 14)
    labels = SampleSet(data.X, np.where(data.y > 0.5, 1.0, 0.0), data.box)
    config = SolverConfig(gamma=0.05, iters=5)
    with pytest.raises(DomainError, match="labels"):
        fit(labels, KERNEL, Loss("hinge_eps", 0.05, 10.0), ProblemVariant.full(), config)


EPS = np.finfo(float).eps


def cli_fit_operator(seed):
    """The 300-point, 96 x 32 problem of the cli_fit benchmark: (op after norm, K, wts, L)."""
    data, _ = gen_mixed_gauss(10, 0.453, 300, np.sqrt(1e-3), seed)
    kernel = KernelSpec(w_lo=0.1, w_hi=1.0, box=data.box)
    Z, W, wts = quadrature_nodes(kernel, ProblemVariant.full(), Quadrature(96, 32))
    op = solver_mod._NodeMatrix(kernel, data.X, Z, W)
    K = kernels.cross(kernel, data.X, Z, W)
    return op, K, wts, op.norm(wts)


def test_factored_products_match_the_dense_ones_within_rounding():
    op, K, wts, L = cli_fit_operator(1)
    N, G = K.shape
    assert op._basis is not None and op._rows.shape[1] < N
    # ||K diag(w) K^T|| = ||M^T diag(w) M||: P has orthonormal rows
    assert L == pytest.approx(np.linalg.norm((K * wts) @ K.T, 2), rel=1e-12)
    rng = np.random.default_rng(0)
    lam, v = rng.normal(0.0, 1.0, N), rng.normal(0.0, 1.0, G)
    bound = N * EPS
    assert np.all(np.abs(op.rmatvec(lam) - K.T @ lam) <= bound * (np.abs(K.T) @ np.abs(lam)))
    assert np.all(np.abs(op.matvec(v) - K @ v) <= bound * (np.abs(K) @ np.abs(v)))
    # yhat = K (w s 1_S): gathered support, full pass, gathered complement
    ws = wts * (K.T @ lam)
    for share in (0.0, 0.05, 0.2, 0.5, 0.8, 1.0):
        on = np.zeros(G, dtype=bool)
        on[rng.permutation(G)[: round(share * G)]] = True
        got = op.support_matvec(lam, ws, on)
        assert np.all(np.abs(got - K @ (ws * on)) <= bound * (np.abs(K) @ np.abs(ws * on)))


@pytest.mark.parametrize("seed", [1, 41, 42, 43])
def test_factor_meets_its_entrywise_bound(seed):
    op, K, _, _ = cli_fit_operator(seed)
    N, G = K.shape
    M, P = op._rows, op._basis
    assert P is not None and M.shape[1] == P.shape[0] < N * G // (2 * (N + G))
    assert np.max(np.abs(P @ P.T - np.eye(P.shape[0]))) <= N * EPS
    assert np.max(np.abs(K.T - M @ P)) <= N * EPS


def test_factor_grows_its_rank_until_the_bound_holds(monkeypatch):
    # a sketch whose singular values under-count K's rank starts r at 40
    svd = np.linalg.svd

    def short_svd(a, **kw):
        U, s, Vt = svd(a, **kw)
        return U, np.where(np.arange(s.size) < 40, s, 0.0), Vt

    monkeypatch.setattr(np.linalg, "svd", short_svd)
    op, K, _, _ = cli_fit_operator(1)
    N = K.shape[0]
    assert op._basis is not None and 40 < op._basis.shape[0]
    assert np.max(np.abs(K.T - op._rows @ op._basis)) <= N * EPS


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
        op = solver_mod._NodeMatrix(kernel, train.X, Z, W)
        op.norm(wts)
        assert op._basis is None and op._rows.shape == (Z.shape[0], train.n), name
    assert cli_fit_operator(1)[0]._basis is not None


def test_factored_fit_certificate_matches_a_dense_recomputation(monkeypatch):
    factored = []
    factor = solver_mod._NodeMatrix._factor

    def recorded(op):
        factored.append(factor(op))
        return factored[-1]

    monkeypatch.setattr(solver_mod._NodeMatrix, "_factor", recorded)
    data, _ = gen_mixed_gauss(10, 0.453, 300, np.sqrt(1e-3), 1)
    kernel = KernelSpec(w_lo=0.1, w_hi=1.0, box=data.box)
    loss = losses_mod.default_loss("quadratic_eps", data.y)
    config = SolverConfig(gamma=0.2, iters=200, center_nodes=96, width_nodes=32)
    state, _ = fit(data, kernel, loss, ProblemVariant.full(), config)
    assert factored == [True] and state.t == 200
    Z, W, wts = quadrature_nodes(kernel, ProblemVariant.full(), Quadrature(96, 32))
    K = kernels.cross(kernel, data.X, Z, W)
    smooth = K.T @ state.lam
    alpha = np.where(np.abs(smooth) > np.sqrt(2 * config.gamma), smooth, 0.0)
    g = losses_mod.phi(loss, state.lam, data.y)
    g += wts @ np.minimum(0.0, config.gamma - smooth**2 / 2)
    primal = wts @ (alpha**2 / 2 + config.gamma * (alpha != 0))
    max_c = np.max(losses_mod.value(loss, K @ (wts * alpha), data.y))
    assert state.rel_gap == pytest.approx(abs(primal - g) / max(1.0, abs(primal)), rel=1e-9)
    assert state.max_c == pytest.approx(max_c, rel=1e-9)
