"""Dual ascent for the sparse functional program.

The dual objective separates into per-sample fit terms and an integral
that the thresholded field minimizes in closed form:

    g(lambda, mu) = sum_i [ mu_i c(yhat_i, y_i) + lambda_i yhat_i ]
                    + integral of min(0, gamma - abar(z, w)^2 / 2),

with abar the kernel expansion of lambda.  Supergradients come from the
constraint violation of the inner minimizers, and a projected ascent with
constant (optionally 1/sqrt(t)-decayed) steps climbs g.  The integral is
evaluated either on a fixed midpoint grid (deterministic) or by volume-
corrected Monte Carlo batches (the stochastic path).
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, field

import numpy as np

from . import kernels, losses
from .datasets import SampleSet
from .dual_field import (
    AlphaField,
    ProblemVariant,
    Quadrature,
    make_nodes,
    monte_carlo_nodes,
    quadrature_nodes,
)
from .errors import ConfigError, DivergenceError, DomainError
from .kernels import KernelSpec
from .losses import Loss

# above this many kernel-matrix entries, stream the grid in chunks
_PRECOMPUTE_LIMIT = 30_000_000


@dataclass(frozen=True)
class SolverConfig:
    gamma: float
    eta_lambda: float
    eta_mu: float
    iters: int
    batch: int = 64
    seed: int = 0
    mu_floor: float = 1e-8
    integrator: str = "monte_carlo"
    center_nodes: int = 256
    width_nodes: int = 64
    trace_every: int = 50
    step_decay: str = "none"

    def __post_init__(self):
        if self.gamma < 0:
            raise ConfigError("gamma must be nonnegative")
        if not (self.eta_lambda > 0 and self.eta_mu > 0):
            raise ConfigError("step sizes must be positive")
        if self.iters < 1:
            raise ConfigError("iteration count must be >= 1")
        if self.batch < 1:
            raise ConfigError("batch must be >= 1")
        if self.mu_floor < 0:
            raise ConfigError("mu_floor must be nonnegative")
        if self.integrator not in ("quadrature", "monte_carlo"):
            raise ConfigError(f"unknown integrator {self.integrator!r}")
        if self.step_decay not in ("none", "sqrt"):
            raise ConfigError(f"unknown step decay {self.step_decay!r}")
        if self.trace_every < 1:
            raise ConfigError("trace_every must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SolverConfig":
        kw = {k: d[k] for k in cls.__dataclass_fields__ if k in d}
        for key, val in kw.items():
            kind = cls.__dataclass_fields__[key].type
            if kind == "str":
                ok = isinstance(val, str)
            else:
                ok = isinstance(val, (int, float)) and not isinstance(val, bool)
                ok = ok and (kind == "float" or float(val).is_integer())
            if not ok:
                raise ConfigError(f"solver setting {key!r} must be of type {kind}, got {val!r}")
            if kind == "int":
                kw[key] = int(val)
        return cls(**kw)


@dataclass
class DualState:
    lam: np.ndarray
    mu: np.ndarray
    t: int = 0
    g_trace: list = field(default_factory=list)
    best_g: float = -np.inf


@dataclass(frozen=True, eq=False)
class Problem:
    samples: SampleSet
    kernel: KernelSpec
    loss: Loss
    variant: ProblemVariant
    gamma: float

    def __post_init__(self):
        self.variant.validate_against(self.kernel)
        if self.gamma < 0:
            raise DomainError("gamma must be nonnegative")


def _integral_terms(problem, lam, Z, W, wts, K=None):
    """Integral part of g, the projections of alpha, and their lambda term.

    Returns (g_int, proj) with proj_i = integral of alpha * k(x_i, .).
    A precomputed kernel matrix is the single chunk; otherwise the node set
    is streamed in chunks.
    """
    X = problem.samples.X
    thr2 = 2.0 * problem.gamma
    n = X.shape[0]
    chunk = Z.shape[0] if K is not None else max(1, int(_PRECOMPUTE_LIMIT // max(n, 1)))
    g_int = 0.0
    proj = np.zeros(n)
    for s in range(0, Z.shape[0], chunk):
        if K is None:
            Kc = kernels.cross(problem.kernel, X, Z[s : s + chunk], W[s : s + chunk])
        else:
            Kc = K
        smooth = Kc.T @ lam
        sparse = np.where(smooth * smooth > thr2, smooth, 0.0)
        wc = wts[s : s + chunk]
        g_int += float(wc @ np.minimum(0.0, problem.gamma - 0.5 * smooth**2))
        proj += Kc @ (wc * sparse)
    return g_int, proj


def _dual_terms(problem, lam, mu, Z, W, wts, K=None):
    y = problem.samples.y
    yhat = losses.inner_minimize(problem.loss, lam, mu, y)
    cvals = np.asarray(losses.value(problem.loss, yhat, y))
    g_fit = float(mu @ cvals + lam @ yhat)
    g_int, proj = _integral_terms(problem, lam, Z, W, wts, K)
    d_lam = yhat - proj
    return g_fit + g_int, d_lam, cvals, proj


def dual_objective(state: DualState, problem: Problem, quad: Quadrature) -> float:
    """Deterministic g(lambda, mu) under the given midpoint rule."""
    if np.any(state.mu < 0):
        raise DomainError("mu must be nonnegative")
    Z, W, wts = quadrature_nodes(problem.kernel, problem.variant, quad)
    g, _, _, _ = _dual_terms(problem, state.lam, state.mu, Z, W, wts)
    return g


def supergradient(state: DualState, problem: Problem, integrator):
    """(d_lambda, d_mu) at the state; unbiased for lambda under Monte Carlo."""
    if np.any(state.mu < 0):
        raise DomainError("mu must be nonnegative")
    Z, W, wts = make_nodes(problem.kernel, problem.variant, integrator)
    _, d_lam, d_mu, _ = _dual_terms(problem, state.lam, state.mu, Z, W, wts)
    return d_lam, d_mu


def primal_objective(field_: AlphaField, quad: Quadrature) -> float:
    """Smoothness-plus-support objective of the thresholded field."""
    Z, W, wts = quadrature_nodes(field_.kernel, field_.variant, quad)
    vals = field_.coeff_at_nodes(Z, W)
    support = vals != 0.0
    return float(wts @ (0.5 * vals**2 + field_.gamma * support))


def fit(
    samples: SampleSet,
    kernel: KernelSpec,
    loss: Loss,
    variant: ProblemVariant,
    config: SolverConfig,
    trace_path=None,
    init_lam=None,
    init_mu=None,
):
    """Projected supergradient ascent; returns (DualState, AlphaField).

    The returned field is built from the final iterate; the best objective
    value seen along the run is kept on the state as ``best_g``.  A fixed
    seed yields a bit-identical trace.  ``init_lam``/``init_mu`` warm-start
    the ascent (defaults: zeros and ones).
    """
    problem = Problem(samples, kernel, loss, variant, config.gamma)
    n = samples.n
    lam = np.zeros(n) if init_lam is None else np.asarray(init_lam, dtype=float).copy()
    mu = (
        np.full(n, max(1.0, config.mu_floor))
        if init_mu is None
        else np.maximum(np.asarray(init_mu, dtype=float), config.mu_floor)
    )
    if lam.shape != (n,) or mu.shape != (n,):
        raise ConfigError("warm-start vectors must have one entry per sample")
    state = DualState(lam=lam, mu=mu)

    quad = Quadrature(config.center_nodes, config.width_nodes)
    rng = np.random.default_rng(config.seed)
    fixed_nodes = None
    K = None
    if config.integrator == "quadrature":
        fixed_nodes = quadrature_nodes(kernel, variant, quad)
        if n * fixed_nodes[0].shape[0] <= _PRECOMPUTE_LIMIT:
            K = kernels.cross(kernel, samples.X, fixed_nodes[0], fixed_nodes[1])

    writer = None
    trace_fh = None
    if trace_path is not None:
        trace_fh = open(trace_path, "w", newline="")
        writer = csv.writer(trace_fh)
        writer.writerow(["t", "g_estimate", "d_lambda_norm", "max_violation"])

    try:
        # overflow and NaN surface as a DivergenceError, not as warnings
        with np.errstate(over="ignore", invalid="ignore"):
            # the last pass only evaluates the final iterate
            for t in range(config.iters + 1):
                if fixed_nodes is not None:
                    Z, W, wts = fixed_nodes
                else:
                    Z, W, wts = monte_carlo_nodes(kernel, variant, config.batch, rng)
                g, d_lam, d_mu, proj = _dual_terms(problem, state.lam, state.mu, Z, W, wts, K)
                finite = np.all(np.isfinite(d_lam)) and np.all(np.isfinite(d_mu))
                if not (finite and np.isfinite(g)):
                    raise DivergenceError(
                        t, float(np.linalg.norm(state.lam)), float(np.linalg.norm(state.mu))
                    )
                if t % config.trace_every == 0 or t == config.iters:
                    state.g_trace.append((t, g))
                    if writer is not None:
                        viol = float(np.max(losses.value(loss, proj, samples.y)))
                        writer.writerow([t, g, float(np.linalg.norm(d_lam)), viol])
                state.best_g = max(state.best_g, g)
                if t == config.iters:
                    break
                decay = 1.0 / np.sqrt(t + 1.0) if config.step_decay == "sqrt" else 1.0
                state.lam = state.lam + config.eta_lambda * decay * d_lam
                state.mu = np.maximum(state.mu + config.eta_mu * decay * d_mu, config.mu_floor)
        state.t = config.iters
    finally:
        if trace_fh is not None:
            trace_fh.close()

    field_ = AlphaField(
        samples=samples, lam=state.lam, gamma=config.gamma, kernel=kernel, variant=variant
    )
    return state, field_
