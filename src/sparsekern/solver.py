"""Certified accelerated dual ascent for the sparse functional program.

With mu maximised out in closed form (``losses.phi``) the dual is a concave
function of lambda alone,

    g(lambda) = sum_i phi_i(lambda_i) + integral of min(0, gamma - abar^2 / 2),

with abar = K^T lambda the kernel expansion of lambda at the nodes.  The
integral's gradient is -yhat, yhat = K (w * alpha), alpha being abar
hard-thresholded at sqrt(2 gamma); it jumps where |abar| crosses the
threshold.

``fit`` runs FISTA (Beck & Teboulle 2009) on a midpoint quadrature: a
gradient step on the integral, then the prox of phi, with step 1/L,
L = ||K diag(w) K^T||.  A step from the extrapolated point that does not
raise g restarts the momentum (O'Donoghue & Candes 2015); one from the
iterate itself halves the step.  An iteration costs one N x G pass, K^T
of the new iterate, plus yhat at the extrapolated point, whose abar is
linear in the last two iterates.  yhat gathers the smaller of the support
S and its complement when it holds at most G/4 nodes: K_S (w alpha)_S, or
A lambda - K_Sc (w abar)_Sc with A = K diag(w) K^T, the Gram kept from the
step size.  A support and complement both above G/4 nodes, or a K of fewer
than 100k entries, take a second full pass.  A held K whose numerical
rank r is far below N is factored once (``_NodeMatrix``), and every
product then runs on an r-dimensional basis: O((N + G) r) per step in
place of O(N G).  Each iteration certifies the extrapolated point from
vectors in hand: rel_gap = |P - g| / max(1, |P|) with P = integral of
alpha^2 / 2 + gamma 1[alpha != 0] the primal value of its field, and
max_i c(yhat_i, y_i) its constraint violation.  ``fit`` stops when both
are at most ``tol``; ``iters`` is a cap.
"""

from __future__ import annotations

import contextlib
import csv
from collections import namedtuple
from dataclasses import asdict, dataclass, field

import numpy as np

from . import kernels, losses
from .datasets import SampleSet
from .dual_field import (
    AlphaField,
    ProblemVariant,
    Quadrature,
    # the benchmark tracer wraps it here too; delete with the next benchmark change
    monte_carlo_nodes,  # noqa: F401
    quadrature_nodes,
)
from .errors import ConfigError, DivergenceError, DomainError
from .kernels import KernelSpec
from .losses import Loss

# above this many kernel-matrix entries, stream the grid in chunks
_PRECOMPUTE_LIMIT = 30_000_000
# kernels.cross builds the node-major matrix this many nodes at a time
_BLOCK = 512
# yhat gathers the smaller of the support and its complement when that holds
# at most _GATHER_SHARE of the nodes and K has at least _GATHER_MIN_ENTRIES
# entries.  Measured on one thread at N = 300, G = 3072, a gather of a random
# fraction f of the nodes costs 0.11 of a full N x G pass at f = 5% and 0.6 of
# it at f = 20%: the gathered rows are copied before the product.  Below 100k
# entries a full pass takes under 30 us, and the fixed cost of a gather's few
# numpy calls (about 10 us) is as large as what it saves.
_GATHER_SHARE = 0.25
_GATHER_MIN_ENTRIES = 100_000
_EPS = np.finfo(float).eps
# the sketch of a low-rank K and the check of its factor take this many nodes
# at a time
_CHECK_BLOCK = 128


@dataclass(frozen=True)
class SolverConfig:
    gamma: float
    iters: int
    tol: float = 1e-3
    center_nodes: int = 256
    width_nodes: int = 64
    trace_every: int = 50
    # no field: the benchmark tracer reads it; delete with the next benchmark change
    integrator = "quadrature"

    def __post_init__(self):
        if self.gamma < 0:
            raise ConfigError("gamma must be nonnegative")
        if self.iters < 1:
            raise ConfigError("iteration count must be >= 1")
        if not self.tol > 0:
            raise ConfigError("tol must be positive")
        if self.trace_every < 1:
            raise ConfigError("trace_every must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SolverConfig":
        kw = {}
        for key, val in d.items():
            if key not in cls.__dataclass_fields__:
                raise ConfigError(f"unknown solver setting {key!r}")
            kind = cls.__dataclass_fields__[key].type
            numeric = isinstance(val, (int, float)) and not isinstance(val, bool)
            if not (numeric and (kind == "float" or float(val).is_integer())):
                raise ConfigError(f"solver setting {key!r} must be of type {kind}, got {val!r}")
            kw[key] = int(val) if kind == "int" else val
        return cls(**kw)


@dataclass
class DualState:
    """Final multipliers, iterations run (``t``), and the certificate of their field."""

    lam: np.ndarray
    t: int = 0
    g_trace: list = field(default_factory=list)
    converged: bool = False
    g: float = -np.inf
    primal: float = np.inf
    rel_gap: float = np.inf
    max_c: float = np.inf


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
        if self.loss.kind == "hinge_eps" and np.any(np.abs(self.samples.y) != 1.0):
            raise DomainError("hinge_eps needs labels -1 or +1")


class _NodeMatrix:
    """K[i, j] = k(x_i; z_j, w_j) on fixed nodes, stored node-major: one row per node.

    Held whole (``_rows`` is K^T, G x N), or rebuilt in chunks of nodes when
    it would exceed _PRECOMPUTE_LIMIT entries (``_rows`` is None).  ``norm``
    keeps the Gram A = K diag(w) K^T.  With it ``support_matvec`` gathers at
    most G/4 nodes when the support or its complement is that small and K
    has at least 100k entries, and makes one N x G pass otherwise.

    A held K of low numerical rank is factored by ``norm``: K^T = M P, with
    P (r x N) of orthonormal rows and M = K^T P^T (G x r), whose rows take
    the place of K's, and K is released.  A step then costs O((N + G) r):
    abar = M (P lam), and yhat = P^T (.) from the same gathers on M's
    r-wide rows, with the r x r C = M^T diag(w) M in place of A;
    ||A|| = ||C|| since P has orthonormal rows.

    The rule costs nothing: with r8 the count of A's eigenvalues above eps
    times the largest, which ``norm`` computes anyway, K is factored when
    4 r8 (N + G) <= N G, that is when twice r8 is at most the break-even
    rank k = N G / (2 (N + G)).  Seed-0 rep 0 of each desk study stays
    dense (r8 vs k): remark1 13 vs 9, komp_sparsity 15 vs 9, grid_vs_pii2
    49 vs 48, pii_full 49 vs 49, sample_stability n = 51/101/201 51/94/96
    vs 25/49/98.  The cli_fit problem (N = 300, G = 96 x 32) has r8 = 50-51
    against k = 136, and is factored.

    The factor is kept only if max|K^T - M P| <= N eps entrywise: that is
    the worst-case rounding of the dense products it replaces, so abar and
    yhat stay as accurate as a full pass.  On cli_fit that takes r = 77-78,
    the rank where the sketch's singular values fall below eps times the
    largest (seeds 1 and 41-43).
    """

    def __init__(self, kernel, X, Z, W):
        self._args = (kernel, X, Z, W)
        self._step = max(1, _PRECOMPUTE_LIMIT // X.shape[0])
        G = Z.shape[0]
        self._rows = self._build(np.arange(G)) if G <= self._step else None
        self._basis = None  # P, once factored
        self._gram = None

    def _build(self, nodes):
        """The rows K[:, nodes]^T, from kernels.cross on at most _BLOCK nodes at a time."""
        kernel, X, Z, W = self._args
        rows = np.empty((len(nodes), X.shape[0]))
        for j in range(0, len(nodes), _BLOCK):
            part = nodes[j : j + _BLOCK]
            rows[j : j + _BLOCK] = kernels.cross(kernel, X, Z[part], W[part]).T
        return rows

    def _chunks(self):
        if self._rows is not None:
            return [(slice(None), self._rows)]
        G = self._args[2].shape[0]
        parts = [np.arange(s, min(s + self._step, G)) for s in range(0, G, self._step)]
        return ((part, self._build(part)) for part in parts)

    def _coords(self, lam):
        """P lam once factored, else lam."""
        return lam if self._basis is None else self._basis @ lam

    def _lift(self, u):
        """P^T u once factored, else u."""
        return u if self._basis is None else u @ self._basis

    def rmatvec(self, lam):
        """K^T lam: the smooth surface abar at the nodes."""
        lam = self._coords(lam)
        parts = [rows @ lam for _, rows in self._chunks()]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def matvec(self, v):
        if self._rows is not None:
            return self._lift(self._rows.T @ v)
        return sum(rows.T @ v[part] for part, rows in self._chunks())

    def norm(self, wts) -> float:
        """||K diag(w) K^T||: sums B^T B over blocks B of diag(sqrt(w)) K^T; keeps the sum.

        A held K whose Gram has few eigenvalues above eps times the largest
        is factored first, and the sum is then C = M^T diag(w) M.
        """
        gram = 0.0
        for part, rows in self._chunks():
            root = np.sqrt(wts[part])[:, None]
            for j in range(0, rows.shape[0], _BLOCK):
                B = rows[j : j + _BLOCK] * root[j : j + _BLOCK]
                gram = gram + B.T @ B
        eigs = np.linalg.eigvalsh(gram)
        if self._rows is not None and self._basis is None:
            G, N = self._rows.shape
            rank = np.count_nonzero(eigs > _EPS * eigs[-1])
            if rank and 4 * rank * (N + G) <= N * G and self._factor():
                return self.norm(wts)
        self._gram = gram
        return float(eigs[-1])

    def _factor(self) -> bool:
        """Replace the held K^T by M P; returns whether it did.

        P spans a Gaussian sketch K Omega^T of K's column space, with Omega
        k x G and k = N G / (2 (N + G)).  r starts at the number of
        the sketch's singular values above eps times the largest, and grows
        until max|K^T - M P| <= N eps, checked on _CHECK_BLOCK nodes at a
        time, so no N x G temporary is formed.  K stays when no r below k
        passes.
        """
        Kt = self._rows
        G, N = Kt.shape
        k = N * G // (2 * (N + G))
        rng = np.random.default_rng(0)  # a fixed sketch: runs stay bit-identical
        sketch = np.zeros((N, k))
        for j in range(0, G, _CHECK_BLOCK):
            block = Kt[j : j + _CHECK_BLOCK]
            sketch += block.T @ rng.standard_normal((block.shape[0], k))
        U, sv, _ = np.linalg.svd(sketch, full_matrices=False)
        for r in range(int(np.count_nonzero(sv > _EPS * sv[0])), k):
            basis = np.ascontiguousarray(U[:, :r].T)
            M = np.empty((G, r))
            for j in range(0, G, _CHECK_BLOCK):
                block = Kt[j : j + _CHECK_BLOCK]
                M[j : j + _CHECK_BLOCK] = block @ basis.T
                if np.max(np.abs(block - M[j : j + _CHECK_BLOCK] @ basis)) > N * _EPS:
                    break
            else:
                self._rows, self._basis = M, basis
                return True
        return False

    def support_matvec(self, lam, ws, on):
        """K (ws * on) for ws = w * (K^T lam), after ``norm(w)``.

        Gathers the smaller of the support S = ``on`` and its complement
        when it has at most _GATHER_SHARE * G nodes and K at least
        _GATHER_MIN_ENTRIES entries: K_S ws_S, or A lam - K_Sc ws_Sc
        (factored: P^T (M_S^T ws_S), or P^T (C P lam - M_Sc^T ws_Sc)).
        Otherwise one full pass.
        """
        if len(lam) * on.size < _GATHER_MIN_ENTRIES:
            return self.matvec(ws * on)
        n_on = np.count_nonzero(on)
        if min(n_on, on.size - n_on) > _GATHER_SHARE * on.size:
            return self.matvec(ws * on)
        use_support = 2 * n_on <= on.size
        nodes = np.flatnonzero(on if use_support else ~on)
        if self._rows is not None:
            part = ws[nodes] @ self._rows[nodes]
        else:  # only the gathered nodes go through kernels.cross
            chunks = [nodes[j : j + self._step] for j in range(0, len(nodes), self._step)]
            part = sum((ws[c] @ self._build(c) for c in chunks), np.zeros(len(lam)))
        return self._lift(part if use_support else self._gram @ self._coords(lam) - part)


# g, P, rel_gap, max_i c(yhat_i, y_i), alpha's support mask, yhat = K (w * alpha)
_Certificate = namedtuple("_Certificate", "g primal rel_gap max_c on yhat")


def _certify(problem, lam, smooth, wts, op, t):
    """The certificate of lambda, whose abar at the nodes is ``smooth``."""
    gamma = problem.gamma
    on = np.abs(smooth) > np.sqrt(2.0 * gamma)
    ws = wts * smooth
    wa = ws * on
    sq = float(wa @ smooth)
    mass = float(wts @ on)
    g = losses.phi(problem.loss, lam, problem.samples.y) + gamma * mass - 0.5 * sq
    primal = gamma * mass + 0.5 * sq
    yhat = op.support_matvec(lam, ws, on)
    max_c = float(np.max(losses.value(problem.loss, yhat, problem.samples.y)))
    rel_gap = abs(primal - g) / max(1.0, abs(primal))
    # g = -inf is no failure: an extrapolated point may leave hinge's half-line
    if not (np.isfinite(max_c) and g < np.inf):
        raise DivergenceError(t, float(np.linalg.norm(lam)))
    return _Certificate(g, primal, rel_gap, max_c, on, yhat)


def dual_objective(state: DualState, problem: Problem, quad: Quadrature) -> float:
    """Deterministic g(lambda) under the given midpoint rule."""
    Z, W, wts = quadrature_nodes(problem.kernel, problem.variant, quad)
    smooth = _NodeMatrix(problem.kernel, problem.samples.X, Z, W).rmatvec(state.lam)
    g_int = float(wts @ np.minimum(0.0, problem.gamma - 0.5 * smooth**2))
    return losses.phi(problem.loss, state.lam, problem.samples.y) + g_int


def primal_objective(field_: AlphaField, quad: Quadrature) -> float:
    """Smoothness-plus-support objective of the thresholded field."""
    Z, W, wts = quadrature_nodes(field_.kernel, field_.variant, quad)
    vals = field_.coeff_at_nodes(Z, W)
    support = vals != 0.0
    return float(wts @ (0.5 * vals**2 + field_.gamma * support))


def _accelerated_ascent(problem, op, wts, config, record):
    """FISTA with restart and step halving; returns (lambda, t, certificate)."""
    loss, y, gamma = problem.loss, problem.samples.y, problem.gamma
    step = 1.0 / max(op.norm(wts), 1e-300)
    x = x_prev = np.zeros(problem.samples.n)
    s = s_prev = op.rmatvec(x)
    g_x, theta, beta, t = 0.0, 1.0, 0.0, 0  # g(0) = 0
    while True:
        # the extrapolated point and its abar, by linearity
        lam = x + beta * (x - x_prev) if beta else x
        smooth = s + beta * (s - s_prev) if beta else s
        cert = _certify(problem, lam, smooth, wts, op, t)
        done = (cert.rel_gap <= config.tol and cert.max_c <= config.tol) or t == config.iters
        record(t, cert, done)
        if done:
            return lam, t, cert
        x_new = losses.prox(loss, lam - step * cert.yhat, y, step)
        s_new = op.rmatvec(x_new)
        # min(0, gamma - s^2 / 2) = (min(s^2, 2 gamma) - s^2) / 2
        sq = s_new * s_new
        g_new = losses.phi(loss, x_new, y) + 0.5 * float(wts @ (np.minimum(sq, 2.0 * gamma) - sq))
        t += 1
        if g_new >= g_x:
            x_prev, s_prev, x, s, g_x = x, s, x_new, s_new, g_new
            theta_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta * theta))
            beta, theta = (theta - 1.0) / theta_next, theta_next
        elif beta:
            theta, beta = 1.0, 0.0
        else:
            step *= 0.5
        if t == config.iters:
            beta = 0.0  # the last pass certifies the iterate itself


def fit(
    samples: SampleSet,
    kernel: KernelSpec,
    loss: Loss,
    variant: ProblemVariant,
    config: SolverConfig,
    trace_path=None,
):
    """Maximise the dual from lambda = 0; returns (DualState, AlphaField).

    The state holds the iterations run (``t``) and the certificate of the
    field on the midpoint quadrature.  Runs are bit-identical.
    """
    problem = Problem(samples, kernel, loss, variant, config.gamma)
    Z, W, wts = quadrature_nodes(kernel, variant, Quadrature(config.center_nodes, config.width_nodes))
    g_trace = []
    with open(trace_path, "w", newline="") if trace_path else contextlib.nullcontext() as fh:
        writer = csv.writer(fh) if fh else None
        if writer:
            writer.writerow(["t", "g", "rel_gap", "max_violation", "support_fraction"])

        def record(t, cert, final):
            if t % config.trace_every == 0 or final:
                g_trace.append((t, cert.g))
                if writer:
                    support = np.count_nonzero(cert.on) / cert.on.size
                    writer.writerow([t, cert.g, cert.rel_gap, max(0.0, cert.max_c), support])

        # overflow and NaN surface as a DivergenceError, not as warnings
        with np.errstate(over="ignore", invalid="ignore"):
            op = _NodeMatrix(kernel, samples.X, Z, W)
            lam, t, cert = _accelerated_ascent(problem, op, wts, config, record)
    converged = cert.rel_gap <= config.tol and cert.max_c <= config.tol
    state = DualState(lam, t, g_trace, converged, *cert[:4])
    return state, AlphaField(samples, lam, config.gamma, kernel, variant)
