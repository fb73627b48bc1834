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
L = ||K diag(w) K^T||.  It starts at the best point of A's spectral
path, A = K diag(w) K^T: the truncated solves lambda_c = sum over mu_i >=
c mu_max of v_i (v_i^T y) / mu_i for A's eigenpairs (mu_i, v_i), c in
_START_CUTOFFS, fit y in closed form on A's leading directions.  Each
candidate's g is read from its own surface pass, and the ascent starts
from the one of largest g, lambda = 0 (g = 0) among them.  A step from
the extrapolated point that does not raise g restarts the momentum
(O'Donoghue & Candes 2015); one from the iterate itself halves the step.
An iteration costs one N x G pass, K^T of the new iterate, plus the
certificate of the extrapolated point, whose abar is linear in the last
two iterates.  Each iteration certifies that point from vectors in hand:
rel_gap = |P - g| / max(1, |P|) with P = integral of alpha^2 / 2 + gamma
1[alpha != 0] the primal value of its field, and max_i c(yhat_i, y_i) its
constraint violation.  ``fit`` stops when both are at most ``tol``;
``iters`` is a cap.

The kernel matrix K is held, or factored from chunked reads, or refused
before any step; dense or factored, it is certified by one routine,
``_NodeMatrix.certificate_terms``, whose class docstring states both
rules.  A K whose numerical rank r is far below N, read from a
random-sign sketch, is factored once, and every product then runs on an
r-dimensional basis: O((N + G) r) per step in place of O(N G).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import kernels, losses
from .datasets import SampleSet
from .dual_field import (
    AlphaField,
    ProblemVariant,
    Quadrature,
    # the benchmark tracer wraps it here too; delete with the next benchmark change
    monte_carlo_nodes,  # noqa: F401
    quadrature_grid,
    quadrature_nodes,
)
from .documents import Document
from .errors import ConfigError, DivergenceError, DomainError
from .kernels import KernelSpec
from .losses import Loss

# a K of at most this many entries is held; a larger one is factored from
# chunked reads when its M has at most this many, else refused
_PRECOMPUTE_LIMIT = 30_000_000
# below this many kernel-matrix entries a gather costs more than it saves, so
# the certificate reads one fixed block of every node: over the 86,192
# certificates of the seed-0 komp_sparsity desk fits (K 20 x 256), 6.5-6.8 us
# each on the block against 11.1-11.6 us gathered (one thread)
_GATHER_MIN_ENTRIES = 100_000
_EPS = np.finfo(float).eps
# the sketch of a low-rank K and the check of its factor read this many nodes
# at a time
_CHECK_BLOCK = 128
# the factoring rule's probe sketches every _PROBE_STRIDE-th node: on pii_full's
# 100 x 6144 K it takes 0.3-0.4 ms (N G (h + 1) / 8 multiply-adds, 1/32 of the
# Gram's N^2 G), and it alone keeps rep 0 of every seed-0 desk study dense
_PROBE_STRIDE = 8
# a factored step classifies the nodes from a float32 pass when R ||u|| is at
# most this (R the largest row norm of M, u = P lam): then u, s and the
# extrapolated s + beta (s - s_prev), at most 3 R ||u|| in size, stay below
# float32's largest value, 3.4e38
_F32_SCALE_MAX = float(np.finfo(np.float32).max) / 16
# DualState.trace takes every _TRACE_EVERY-th step and the last one
_TRACE_EVERY = 50
# the cutoffs c of the ascent's start (module docstring).  On pii_full's
# draws 0-29, 1e-2 alone gave a mean of 54 iterations (53 from lambda = 0,
# 23 with these three); on grid_vs_pii2's 50 desk reps, adding 1e-4 ... 1e-8
# raised the mean from 879 to 908
_START_CUTOFFS = (1e-1, 1e-2, 1e-3)


@dataclass(frozen=True)
class SolverConfig(Document):
    gamma: float
    iters: int
    tol: float = 1e-3
    center_nodes: int = 256
    width_nodes: int = 64
    # no field: the benchmark tracer reads it; delete with the next benchmark change
    integrator = "quadrature"

    def __post_init__(self):
        if not 0 <= self.gamma < math.inf:
            raise ConfigError(f"gamma must be finite and nonnegative, got {self.gamma!r}")
        if self.iters < 1:
            raise ConfigError("iteration count must be >= 1")
        if not 0 < self.tol < math.inf:
            raise ConfigError(f"tol must be finite and positive, got {self.tol!r}")


@dataclass
class DualState:
    """Final multipliers, iterations run (``t``), their field's certificate, and ``trace``."""

    lam: np.ndarray
    t: int = 0
    trace: list = field(default_factory=list)
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
    """K[i, j] = k(x_i; z_j, w_j) on the midpoint nodes, stored node-major: one row per node.

    The nodes come as the grid's factors (centers, widths, cell), each of
    weight w, the cell's volume, so K diag(w) = w K.  ``_rows`` is K^T
    (G x N), held whole from one kernels.grid call when K has at most
    _PRECOMPUTE_LIMIT entries, else M of its factor (below) from ``_read``
    of _CHECK_BLOCK nodes at a time when M has at most that many, else a
    ConfigError; both are kernels.cross of the expanded nodes bit for bit.
    It factors any K of low numerical rank (``_factor``), forms the Gram
    A = w K K^T and keeps it, with its largest eigenvalue as
    ``lipschitz``.  It keeps A's eigenvectors only until ``spectral_path``
    has built the ascent's start from them; factored, they are C's, lifted
    by P^T, so no N x N eigenproblem is solved.

    Factored, K^T = M P, with P (r x N) of orthonormal rows and M = K^T P^T
    (G x r), whose rows take the place of K's, and K is released.  A step
    then costs O((N + G) r): abar = M (P lam), and yhat = P^T (.) from the
    same gathers on M's r-wide rows, with the r x r C = w M^T M in
    place of A; ||A|| = ||C|| since P has orthonormal rows.

    ``_factor`` reads the rule from its own sketch K Omega^T of k = N G /
    (2 (N + G)) random-sign columns, the break-even rank: K is factored
    when at most h = k / 2 of the sketch's singular values exceed
    sqrt(eps) times the largest.  That count reads r8, the count of A's
    eigenvalues above eps times the largest: cli_fit (N = 300, G = 96 x
    32) 50 vs 51 against h = 68, pii_full 47 vs 49 against h = 24.  A
    probe of h + 1 columns on every _PROBE_STRIDE-th node comes first and
    keeps K dense when all its values exceed that.  It can only say
    "dense", so a misreading costs time, never accuracy; and a column
    subset's singular values interlace below K's, so a full probe speaks
    for K.

    The factor is kept only if max|K^T - M P| <= N eps entrywise: that is
    the worst-case rounding of the dense products it replaces, so abar and
    yhat stay as accurate as a full pass.  On cli_fit that takes r = 77-78,
    the rank where the sketch's singular values fall below eps times the
    largest (seeds 1, 7 and 41-43).

    The loop asks for K^T lam only through ``surface``, ``extrapolate``,
    ``integral`` and ``certificate_terms``.  A surface holds its
    coordinates u (P lam once factored, else lam itself), the values s of
    abar at the nodes, and scale, the size of their error bound: 0 for a
    float64 s, which is exact.  A factored K keeps the leading q columns of
    M in float32 (M32, 0.64 MB on cli_fit beside the 1.9 MB float64 M), q
    the fewest whose dropped tail has R_tail = max_j ||M_j[q:]|| <= 2^-24
    R, R = max_j ||M_j||: M's columns fall with the sketch's singular
    values, and cli_fit has q = 51-52 of r = 77.  Its surface is s32 =
    M32 fl32(u[:q]), and |s32_j - s_j| <= gamma_{q+2} ||M_j|| ||u|| +
    R_tail ||u[q:]|| (Higham, Accuracy and Stability of Numerical
    Algorithms, 3.1; gamma_n = n e / (1 - n e), e = 2^-24), with scale =
    R ||u||.  The extrapolated point is formed in float32 with scale (1 +
    beta) scale + beta scale_prev, and u in r-space: gamma_{q+6} covers
    its three roundings.  A dense K stays float64.

    The certificate of a surface s, read by ``certificate_terms``, puts
    node j on the support when |s_j| > sqrt(2 gamma).  A node whose ||s_j|
    - sqrt(2 gamma)| exceeds the surface's bound is on or off the support
    exactly as a float64 pass puts it; the others are undecided.  Exact
    values are read on a block of nodes only: s[nodes] from an exact
    surface, the rows times u from a float32 one.  A K of fewer than
    _GATHER_MIN_ENTRIES entries has one block, every node on the support
    side, so its product is one full pass.  Any other K gathers the
    smaller side of the support, the support itself or its complement,
    with the undecided nodes: about G/2 nodes at most.  The other side
    comes from the Gram and the node count: sum_on w s^2 = u^T A u - w
    sum_off s^2, W_on = w (G - G_off) and yhat = A u - w K_off s_off
    (factored, P^T (C u - w M_off^T s_off)).  So g, P, rel_gap and the
    violation are the float64 certificate on every surface.  On the cli_fit
    fits of seeds 1, 7 and 41 the float32 error stays under 7.8% of
    gamma_{q+6} scale.

    The gathered rows of K^T or M are kept across steps: a block gathered
    on exactly the needed nodes, kept while it still holds every needed
    node on the same side.
    """

    def __init__(self, kernel, X, centers, widths, cell):
        self._args = (kernel, X, centers, widths)
        self._w = float(cell)  # every midpoint node's weight
        N, G = X.shape[0], centers.shape[0] * widths.size
        self._small = N * G < _GATHER_MIN_ENTRIES  # no gather pays below
        held = N * G <= _PRECOMPUTE_LIMIT
        self._rows = kernels.grid(kernel, centers, X, widths[:, None]) if held else None
        self._basis = None  # P, once factored
        if not self._factor() and not held:
            raise ConfigError(
                f"the {N} x {G} kernel matrix has more than {_PRECOMPUTE_LIMIT:,} entries and "
                "cannot be factored; lower the solver's center_nodes (per input axis) or width_nodes"
            )
        # a small K's one block of every node, else the kept block
        self._block = _Block(slice(None), True, self._rows) if self._small else None
        self._gram = self._w * (self._rows.T @ self._rows)
        # A's eigenpairs, in u's coordinates; spectral_path reads and drops them
        self._eig = np.linalg.eigh(self._gram)
        self.lipschitz = float(self._eig[0][-1])  # ||K diag(w) K^T||

    def _lift(self, u):
        """P^T u once factored, else u."""
        return u if self._basis is None else u @ self._basis

    def spectral_path(self, y):
        """The truncated solves lambda_c of A lam = y (module docstring); drops A's eigenvectors."""
        mu, V = self._eig
        self._eig = None
        if not mu[-1] > 0:
            return []
        coef = V.T @ (y if self._basis is None else self._basis @ y)
        path = []
        for cutoff in _START_CUTOFFS:
            keep = mu >= cutoff * mu[-1]
            path.append(self._lift(V[:, keep] @ (coef[keep] / mu[keep])))
        return path

    def _factor(self) -> bool:
        """Factor K^T = M P and keep M as ``_rows``; returns whether it did.

        K^T is read _CHECK_BLOCK nodes at a time, as views of the held K^T
        or else by ``_read``, with the same entries.
        P spans a random-sign sketch K Omega^T of K's column space, with
        Omega k x G and k = N G / (2 (N + G)); signs draw in 1 ms on
        cli_fit where Gaussians took 8, at the same r.  K is factored when
        at most h = N G / (4 (N + G)) of the sketch's singular values
        exceed sqrt(eps) times the largest; a probe of h + 1 columns on
        every _PROBE_STRIDE-th node keeps K dense first when all of its
        values do.  r is the number of the sketch's singular values above
        eps times the largest, and K is not factored unless r < k, M has at
        most _PRECOMPUTE_LIMIT entries and max|K^T - M P| <= N eps, checked
        block by block, so no N x G temporary is formed.
        """
        _, X, centers, widths = self._args
        N, G = X.shape[0], centers.shape[0] * widths.size
        read = self._read if self._rows is None else self._rows.__getitem__  # K^T on a slice of nodes

        k = N * G // (2 * (N + G))
        h = N * G // (4 * (N + G))
        if h < 1:  # not even rank 1 would pay
            return False
        rng = np.random.default_rng(0)  # a fixed sketch: runs stay bit-identical
        bits = rng.integers(0, 256, (G, (k + 7) // 8), dtype=np.uint8)

        def sketch(stride, cols):
            """K Omega^T on every stride-th node and the first cols signs."""
            out = np.zeros((N, cols))
            for j in range(0, G, stride * _CHECK_BLOCK):
                part = slice(j, j + stride * _CHECK_BLOCK, stride)
                out += read(part).T @ (1.0 - 2.0 * np.unpackbits(bits[part], axis=1, count=cols))
            return out

        probe = sketch(_PROBE_STRIDE, h + 1)
        sq = np.linalg.eigvalsh(probe.T @ probe)  # its squared singular values
        if np.count_nonzero(sq > _EPS * sq[-1]) > h:
            return False
        U, sv, _ = np.linalg.svd(sketch(1, k), full_matrices=False)
        r = int(np.count_nonzero(sv > _EPS * sv[0]))
        if not sv[0] > 0 or np.count_nonzero(sv > math.sqrt(_EPS) * sv[0]) > h or r >= k:
            return False
        if G * r > _PRECOMPUTE_LIMIT:  # never for a held K: r < N
            return False
        basis = np.ascontiguousarray(U[:, :r].T)
        M = np.empty((G, r))
        for j in range(0, G, _CHECK_BLOCK):
            block = read(slice(j, j + _CHECK_BLOCK))
            M[j : j + _CHECK_BLOCK] = block @ basis.T
            if np.max(np.abs(block - M[j : j + _CHECK_BLOCK] @ basis)) > N * _EPS:
                return False
        self._rows, self._basis = M, basis
        self._row_norm = float(np.sqrt(np.max(np.einsum("ij,ij->i", M, M))))
        # q, the leading columns the float32 pass reads: the fewest whose
        # dropped tail has max_j ||M_j[q:]|| <= 2^-24 R
        tail_sq, q = np.zeros(G), r
        while q > 0:
            wider = tail_sq + np.square(M[:, q - 1])
            if np.max(wider) > (2.0**-24 * self._row_norm) ** 2:
                break
            tail_sq, q = wider, q - 1
        # M32 column by column: its pass takes 15 us on cli_fit, row by row 27
        self._cols32 = np.ascontiguousarray(M[:, :q].T, dtype=np.float32)
        n = q + 6
        # the bound of an extrapolated float32 value is twice gamma_{q+6}
        # scale.  One gamma_{q+6} scale covers its three roundings; the
        # second covers the dropped tail and the float64 pass's own
        # rounding, since q's rule gives
        #   R_tail ||u[q:]|| <= 2^-24 R ||u|| = 2^-24 scale,
        # far below gamma_{q+6} scale >= (q + 6) 2^-24 scale.  The float32
        # errors seen on cli_fit stay under 7.8% of gamma_{q+6} scale.  The
        # floor covers float32 underflow, at most about
        # (2 q + 6 + sqrt(q) R) 2^-149 per node
        self._f32_rel = 2.0 * n * 2.0**-24 / (1.0 - n * 2.0**-24)
        self._f32_floor = n * (1.0 + self._row_norm) * 2.0**-146
        return True

    def _read(self, part):
        """K^T on a slice of the nodes, one kernels.cross call on their centers and widths."""
        kernel, X, centers, widths = self._args
        c, k = np.divmod(np.arange(*part.indices(centers.shape[0] * widths.size)), widths.size)
        return kernels.cross(kernel, centers[c], X, widths[k, None])

    def surface(self, lam):
        """abar = K^T lam at the nodes, as a _Surface (see the class docstring)."""
        if self._basis is not None:
            return self._surface(self._basis @ lam)
        return _Surface(lam, self._rows @ lam, 0.0)

    def zero_surface(self):
        """The surface of lambda = 0 without a pass: zeros, float32 once factored (scale R ||u|| = 0)."""
        G, n = self._rows.shape
        return _Surface(np.zeros(n), np.zeros(G, np.float64 if self._basis is None else np.float32), 0.0)

    def _surface(self, u):
        """The float32 pass for u = P lam, or the exact one outside float32's range."""
        peak = np.abs(u).max()  # nan when u holds one; u @ u cannot overflow below it
        norm_u = math.sqrt(u @ u) if peak <= _F32_SCALE_MAX else np.inf
        scale = self._row_norm * norm_u
        if max(norm_u, scale) <= _F32_SCALE_MAX:
            q = self._cols32.shape[0]
            return _Surface(u, u[:q].astype(np.float32) @ self._cols32, scale)
        return _Surface(u, self._rows @ u, 0.0)

    def extrapolate(self, surf, prev, beta):
        """The surface of x + beta (x - x_prev) from those of x and x_prev, by linearity."""
        if not beta:
            return surf
        u = surf.u + beta * (surf.u - prev.u)
        if surf.s.dtype != prev.s.dtype:  # one float32, one exact
            return self._surface(u)
        s = surf.s - prev.s
        s *= s.dtype.type(beta)
        s += surf.s
        return _Surface(u, s, (1.0 + beta) * surf.scale + beta * prev.scale)

    def integral(self, surf, gamma) -> float:
        """w sum_j min(0, gamma - s_j^2 / 2) for the surface s."""
        if surf.s.dtype == np.float32:
            mass, sq, _, _ = self.certificate_terms(surf, gamma, with_yhat=False)
            return gamma * mass - 0.5 * sq
        # min(0, gamma - s^2 / 2) = (min(s^2, 2 gamma) - s^2) / 2
        sq = surf.s * surf.s
        return 0.5 * self._w * float(np.sum(np.minimum(sq, 2.0 * gamma) - sq))

    def certificate_terms(self, surf, gamma, with_yhat=True):
        """(W_on, sum_on w s^2, the support's share of the nodes, yhat = K (w s 1_on) or None).

        on = |s| > sqrt(2 gamma) for the surface s, read from its block
        (class docstring).
        """
        G, w = surf.s.size, self._w
        nodes, on_side, rows = self._gather(surf, gamma)
        s = rows @ surf.u if surf.s.dtype == np.float32 else surf.s[nodes]
        tau = math.sqrt(2.0 * gamma)
        side = np.abs(s) > tau if on_side else np.abs(s) <= tau
        s = s * side  # zero off the gathered side; a small K's s[nodes] is a view
        sq = w * float(s @ s)
        n_on = int(np.count_nonzero(side))
        if not on_side:
            cu = self._gram @ surf.u
            sq, n_on = float(surf.u @ cu) - sq, G - n_on
        if not with_yhat:
            return w * n_on, sq, n_on / G, None
        part = s @ rows
        part *= w
        return w * n_on, sq, n_on / G, self._lift(part if on_side else cu - part)

    def _gather(self, surf, gamma):
        """The _Block of nodes whose exact values the certificate reads (class docstring).

        A small K returns its one block.  The needed nodes are the smaller
        side of the support as s places it, the support itself
        (``on_side``) or its complement, with every node within the
        surface's error bound of the threshold.  Any other K returns its
        kept block, a superset of the needed nodes, gathered again on
        exactly them when the side changes or a needed node falls outside
        it.
        """
        if self._small:
            return self._block
        a = np.abs(surf.s)
        tau = math.sqrt(2.0 * gamma)
        bound = 0.0
        if a.dtype == np.float32:
            bound = self._f32_rel * surf.scale + self._f32_floor
            bound += 2.0**-22 * (tau + bound)  # and the rounding of tau +- bound to float32
        cast = a.dtype.type
        limit = a.size // 2
        on_side, needed = False, a <= cast(tau + bound)  # off the support, or undecided
        count = np.count_nonzero(needed)
        if count > limit:
            on_side, needed = True, a > cast(tau - bound)  # on the support, or undecided
            count = np.count_nonzero(needed)
        block = self._block
        # fewer needed nodes in the block than in all: one of them fell outside it
        kept = block is not None and block.on_side == on_side
        if not (kept and np.count_nonzero(needed[block.nodes]) == count):
            nodes = np.flatnonzero(needed)
            block = self._block = None  # drop the old rows before gathering the new
            block = self._block = _Block(nodes, on_side, self._rows[nodes])
        return block


# the nodes whose exact values a certificate reads (a small K's slice of every
# node), the side of the support they hold, and the rows of K^T (or M) there,
# kept across steps
_Block = namedtuple("_Block", "nodes on_side rows")


# abar = K^T lam at the nodes: the coordinates u (P lam once factored, else
# lam), s, and scale, the size R ||u|| a float32 s's error bound rests on,
# 0 for an exact float64 s
_Surface = namedtuple("_Surface", "u s scale")


# g, P, rel_gap, max_i c(yhat_i, y_i), alpha's share of the nodes, yhat = K (w * alpha)
_Certificate = namedtuple("_Certificate", "g primal rel_gap max_c support yhat")


def _certify(problem, lam, surface, op, t):
    """The certificate of lambda, whose abar at the nodes is ``surface``."""
    gamma = problem.gamma
    mass, sq, support, yhat = op.certificate_terms(surface, gamma)
    g = losses.phi(problem.loss, lam, problem.samples.y) + gamma * mass - 0.5 * sq
    primal = gamma * mass + 0.5 * sq
    max_c = float(np.max(losses.value(problem.loss, yhat, problem.samples.y)))
    rel_gap = abs(primal - g) / max(1.0, abs(primal))
    # g = -inf is no failure: an extrapolated point may leave hinge's half-line
    if not (np.isfinite(max_c) and g < np.inf):
        raise DivergenceError(t, float(np.linalg.norm(lam)))
    return _Certificate(g, primal, rel_gap, max_c, support, yhat)


def dual_objective(state: DualState, problem: Problem, quad: Quadrature) -> float:
    """Deterministic g(lambda) under the given midpoint rule."""
    Z, W, wts = quadrature_nodes(problem.kernel, problem.variant, quad)
    smooth = kernels.cross(problem.kernel, problem.samples.X, Z, W).T @ state.lam
    g_int = float(wts @ np.minimum(0.0, problem.gamma - 0.5 * smooth**2))
    return losses.phi(problem.loss, state.lam, problem.samples.y) + g_int


def primal_objective(field_: AlphaField, quad: Quadrature) -> float:
    """Smoothness-plus-support objective of the thresholded field."""
    Z, W, wts = quadrature_nodes(field_.kernel, field_.variant, quad)
    vals = field_.coeff_at_nodes(Z, W)
    support = vals != 0.0
    return float(wts @ (0.5 * vals**2 + field_.gamma * support))


def _start(problem, op):
    """(lambda, its surface, g) at lambda = 0 or on the spectral path: the largest g."""
    loss, y, gamma = problem.loss, problem.samples.y, problem.gamma
    best = (np.zeros(problem.samples.n), op.zero_surface(), 0.0)  # g(0) = 0
    for lam in op.spectral_path(y):
        surf = op.surface(lam)
        # -inf off hinge's half-line, so such a solve is never the start
        g = losses.phi(loss, lam, y) + op.integral(surf, gamma)
        if g > best[2]:
            best = (lam, surf, g)
    return best


def _accelerated_ascent(problem, op, config):
    """FISTA with restart and step halving from ``_start``; returns the final DualState."""
    loss, y, gamma = problem.loss, problem.samples.y, problem.gamma
    step = 1.0 / max(op.lipschitz, 1e-300)
    x, s, g_x = _start(problem, op)
    x_prev, s_prev = x, s
    theta, beta, t = 1.0, 0.0, 0
    trace = []
    while True:
        # the extrapolated point and its abar, by linearity
        lam = x + beta * (x - x_prev) if beta else x
        cert = _certify(problem, lam, op.extrapolate(s, s_prev, beta), op, t)
        converged = cert.rel_gap <= config.tol and cert.max_c <= config.tol
        done = converged or t == config.iters
        if t % _TRACE_EVERY == 0 or done:
            trace.append((t, cert.g, cert.rel_gap, max(0.0, cert.max_c), cert.support))
        if done:
            return DualState(lam, t, trace, converged, cert.g, cert.primal, cert.rel_gap, cert.max_c)
        x_new = losses.prox(loss, lam - step * cert.yhat, y, step)
        s_new = op.surface(x_new)
        g_new = losses.phi(loss, x_new, y) + op.integral(s_new, gamma)
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
):
    """Maximise the dual from the start ``_start`` picks; returns (DualState, AlphaField).

    The state holds the iterations run (``t``), the certificate of the
    field on the midpoint quadrature, and ``DualState.trace``: a row (t, g,
    rel_gap, max(0, max_c), support fraction) for every _TRACE_EVERY-th
    step and the last one.  It opens no file.  Runs are bit-identical under
    a fixed BLAS thread count.
    """
    problem = Problem(samples, kernel, loss, variant, config.gamma)
    grid = quadrature_grid(kernel, variant, Quadrature(config.center_nodes, config.width_nodes))
    # overflow and NaN surface as a DivergenceError, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        state = _accelerated_ascent(problem, _NodeMatrix(kernel, samples.X, *grid), config)
    return state, AlphaField(samples, state.lam, config.gamma, kernel, variant)
