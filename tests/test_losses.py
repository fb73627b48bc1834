import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsekern import Loss, default_loss
from sparsekern import losses
from sparsekern.errors import DomainError

ALL_KINDS = ["quadratic_eps", "absolute_eps", "hinge_eps"]


def grid_min(loss, lam, mu, y, points=10_001):
    """Brute-force inner objective minimum over the clamp interval."""
    grid = np.linspace(y - loss.clamp_radius, y + loss.clamp_radius, points)
    obj = mu * losses.value(loss, grid, y) + lam * grid
    return float(np.min(obj))


def test_quadratic_zero_at_match():
    loss = Loss("quadratic_eps", 0.0, 1.0)
    assert losses.value(loss, 2.0, 2.0) == 0.0


def test_hinge_margin_met_exactly():
    loss = Loss("hinge_eps", 0.1, 1.0)
    assert losses.value(loss, 1.0, 1.0) == pytest.approx(-0.1)


def test_quadratic_direct_arithmetic():
    loss = Loss("quadratic_eps", 1.0, 1.0)
    assert losses.value(loss, 2.0, 0.0) == pytest.approx(3.0)


def test_negative_epsilon_rejected():
    with pytest.raises(DomainError):
        Loss("quadratic_eps", -0.1, 1.0)
    with pytest.raises(DomainError):
        Loss("quadratic_eps", 0.1, 0.0)
    with pytest.raises(DomainError):
        Loss("nope", 0.1, 1.0)


def test_inner_minimize_rejects_negative_mu():
    loss = Loss("quadratic_eps", 0.0, 1.0)
    with pytest.raises(DomainError):
        losses.inner_minimize(loss, 0.0, -1.0, 0.0)


def test_inner_quadratic_unpenalized_fit():
    loss = Loss("quadratic_eps", 1e-3, 10.0)
    assert losses.inner_minimize(loss, 0.0, 1.0, 2.0) == pytest.approx(2.0)


def test_inner_quadratic_closed_form():
    loss = Loss("quadratic_eps", 1e-3, 10.0)
    got = losses.inner_minimize(loss, 1.0, 2.0, 0.0)
    assert got == pytest.approx(-0.25)
    obj = 2.0 * losses.value(loss, got, 0.0) + 1.0 * got
    assert obj <= grid_min(loss, 1.0, 2.0, 0.0) + 1e-9


def test_inner_hinge_kink():
    loss = Loss("hinge_eps", 0.05, 10.0)
    got = losses.inner_minimize(loss, 0.5, 1.0, 1.0)
    assert got == pytest.approx(1.0)
    obj = 1.0 * losses.value(loss, got, 1.0) + 0.5 * got
    assert obj <= grid_min(loss, 0.5, 1.0, 1.0) + 1e-9


def test_inner_degenerate_objective_returns_label():
    for kind in ALL_KINDS:
        loss = Loss(kind, 0.1, 5.0)
        assert losses.inner_minimize(loss, 0.0, 0.0, 1.5) == pytest.approx(1.5)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_inner_minimize_beats_grid_oracle(kind):
    rng = np.random.default_rng(42)
    loss = Loss(kind, 0.05, 4.0)
    for _ in range(400):
        lam = rng.normal(0, 2)
        mu = 0.0 if rng.random() < 0.15 else rng.uniform(0, 3)
        y = rng.normal(0, 2)
        yhat = losses.inner_minimize(loss, lam, mu, y)
        obj = mu * losses.value(loss, yhat, y) + lam * yhat
        assert obj <= grid_min(loss, lam, mu, y, points=4001) + 1e-9


def test_inner_minimize_vectorized_matches_scalar():
    rng = np.random.default_rng(7)
    loss = Loss("hinge_eps", 0.05, 6.0)
    lam = rng.normal(0, 1, 64)
    mu = rng.uniform(0, 2, 64)
    y = rng.choice([-1.0, 1.0], 64)
    batch = losses.inner_minimize(loss, lam, mu, y)
    loop = np.array([losses.inner_minimize(loss, l, m, yy) for l, m, yy in zip(lam, mu, y)])
    assert np.array_equal(batch, loop)


@pytest.mark.parametrize("kind", ALL_KINDS)
@given(
    a=st.floats(min_value=-5, max_value=5),
    b=st.floats(min_value=-5, max_value=5),
    y=st.floats(min_value=-3, max_value=3),
)
@settings(max_examples=200, deadline=None)
def test_midpoint_convexity(kind, a, b, y):
    loss = Loss(kind, 0.01, 1.0)
    mid = losses.value(loss, 0.5 * (a + b), y)
    assert mid <= 0.5 * losses.value(loss, a, y) + 0.5 * losses.value(loss, b, y) + 1e-12


def test_default_loss_epsilon_and_clamp():
    y = np.array([0.0, 1.0, 3.0])
    loss = default_loss("quadratic_eps", y)
    assert loss.epsilon == 1e-3
    assert loss.clamp_radius == pytest.approx(30.0)
    hinge = default_loss("hinge_eps", np.array([-1.0, 1.0]))
    assert hinge.epsilon == 0.05


def test_loss_json_round_trip():
    loss = Loss("absolute_eps", 0.2, 3.0)
    assert Loss.from_dict(loss.to_dict()) == loss


def zoom_argmax(f, lo, hi, rounds=14, points=61):
    """Argmax of a concave 1-D function by repeated grid refinement."""
    for _ in range(rounds):
        grid = np.linspace(lo, hi, points)
        vals = np.array([f(x) for x in grid])
        k = int(np.argmax(vals))
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, points - 1)]
    return grid[k], vals[k]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_phi_is_the_max_over_mu_of_the_inner_fit_term(kind):
    # phi(lam) = max over mu >= 0 of  mu c(yhat*, y) + lam yhat*,  yhat* = inner_minimize
    rng = np.random.default_rng(11)
    loss = Loss(kind, 0.05, 40.0)
    for _ in range(20):
        y = rng.choice([-1.0, 1.0]) if kind == "hinge_eps" else rng.normal(0, 2)
        lam = rng.normal(0, 2)
        if kind == "hinge_eps":
            lam = abs(lam) * y
        def fit_term(mu):
            yhat = losses.inner_minimize(loss, lam, mu, y)
            return mu * losses.value(loss, yhat, y) + lam * yhat
        _, best = zoom_argmax(fit_term, 0.0, 60.0)
        assert losses.phi(loss, lam, y) == pytest.approx(best, abs=1e-9)
    if kind == "hinge_eps":
        assert losses.phi(loss, np.array([0.5, 0.5]), np.array([1.0, -1.0])) == -np.inf


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_prox_matches_grid_argmax(kind):
    rng = np.random.default_rng(12)
    loss = Loss(kind, 0.05, 10.0)
    for _ in range(30):
        y = rng.choice([-1.0, 1.0]) if kind == "hinge_eps" else rng.normal(0, 2)
        v, t = rng.normal(0, 2), rng.uniform(0.01, 3.0)
        got = losses.prox(loss, np.array([v]), np.array([y]), t)[0]
        def objective(lam):
            return losses.phi(loss, lam, y) - (lam - v) ** 2 / (2 * t)
        want, best = zoom_argmax(objective, v - 10.0, v + 10.0 + 10.0 * t)
        # the objective is flat to rounding within ~1e-8 of its maximiser
        assert got == pytest.approx(want, abs=1e-6)
        assert objective(got) >= best - 1e-12


def _with_signed_zeros_and_huge(rng, n):
    """Normal draws with eight entries +-0.0 and eight of magnitude near 1e300."""
    a = rng.normal(0.0, 2.0, n)
    picks = rng.permutation(n)
    a[picks[:8]] = rng.choice([0.0, -0.0], 8)
    a[picks[8:16]] = rng.choice([-1.0, 1.0], 8) * rng.uniform(0.5, 1.5, 8) * 1e300
    return a


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_phi_and_prox_are_the_closed_forms_bit_for_bit(kind):
    # the forms of the losses docstring, with the rate sqrt(eps) or eps
    # recomputed here; huge entries overflow to inf or nan in both
    rng = np.random.default_rng(29)
    for eps in (0.0, 1e-3, 0.05, 0.37):
        loss = Loss(kind, eps, 10.0)
        rate = float(np.sqrt(eps)) if kind == "quadratic_eps" else eps
        for _ in range(5):
            lam, v = _with_signed_zeros_and_huge(rng, 64), _with_signed_zeros_and_huge(rng, 64)
            y = rng.choice([-1.0, 1.0], 64) if kind == "hinge_eps" else _with_signed_zeros_and_huge(rng, 64)
            t = rng.uniform(0.01, 3.0)
            with np.errstate(over="ignore", invalid="ignore"):
                if kind == "hinge_eps":
                    lam = np.abs(lam) * y  # on the half-line lam y >= 0
                    assert losses.phi(loss, -lam - y, y) == -np.inf
                    phi = (1.0 - eps) * float(np.dot(lam, y))
                    u = v + (t * (1.0 - eps)) * y
                    prox = np.where(u * y >= 0.0, u, 0.0)
                else:
                    phi = float(np.dot(lam, y) - rate * np.sum(np.abs(lam)))
                    u = v + t * y
                    prox = np.sign(u) * np.maximum(np.abs(u) - t * rate, 0.0)
                assert _bits(losses.phi(loss, lam, y)) == _bits(phi)
                assert _bits(losses.prox(loss, v, y, t)) == _bits(prox)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_loss_rate_is_set_once_and_never_saved(kind):
    loss = Loss(kind, 0.0128, 3.0)
    doc = loss.to_dict()
    assert doc == {"kind": kind, "epsilon": 0.0128, "clamp_radius": 3.0}
    back = Loss.from_dict(doc)
    assert back == loss and back.to_dict() == doc and back.rate == loss.rate
    assert loss.rate == (float(np.sqrt(0.0128)) if kind == "quadratic_eps" else 0.0128)
    # a new epsilon is a new Loss, with its own rate
    other = dataclasses.replace(loss, epsilon=0.25)
    assert other.rate == (0.5 if kind == "quadratic_eps" else 0.25)
