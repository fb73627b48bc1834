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
rank r is far below N, read from a random-sign sketch, is factored once
(``_NodeMatrix``), and every product then runs on an r-dimensional
basis: O((N + G) r) per step in place of O(N G).  Each iteration
certifies the extrapolated point from vectors in hand:
rel_gap = |P - g| / max(1, |P|) with P = integral of
alpha^2 / 2 + gamma 1[alpha != 0] the primal value of its field, and
max_i c(yhat_i, y_i) its constraint violation.  ``fit`` stops when both
are at most ``tol``; ``iters`` is a cap.

A factored step sorts the nodes into support and complement from one
float32 pass on the leading columns of the factor that float32 resolves;
its error is bounded per node (Higham 2002, 3.1), and only nodes within
that bound of the threshold are undecided.  They and the smaller side of
the support get exact float64 values from the factor's rows, kept across
steps, and the r x r Gram gives the rest, so g, P, rel_gap and the
violation are the float64 certificate.  A smaller side above G/4 nodes,
or a P lambda beyond float32's range or not finite, takes the exact
float64 pass.  A dense K stays float64: a prototype of the same scheme
on pii_full's 6144 x 100 K ran 18-31% slower.
"""

from __future__ import annotations

import contextlib
import csv
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
    quadrature_nodes,
)
from .documents import Document
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
# the factoring rule's probe sketches every _PROBE_STRIDE-th node: on pii_full's
# 100 x 6144 K it takes 0.3-0.4 ms (N G (h + 1) / 8 multiply-adds, 1/32 of the
# Gram's N^2 G), and it alone keeps rep 0 of every seed-0 desk study dense
_PROBE_STRIDE = 8
# the kept block of M's rows reaches _BLOCK_MARGIN sqrt(2 gamma) past the
# needed nodes: over the 1000-step cli_fit fits of seeds 1, 7 and 41 it is
# gathered again in 3.2-3.6% of the classifications and holds 1.09-1.13 times
# the needed nodes
_BLOCK_MARGIN = 0.1
# a factored step classifies the nodes from a float32 pass when R ||u|| is at
# most this (R the largest row norm of M, u = P lam): then u, s and the
# extrapolated s + beta (s - s_prev), at most 3 R ||u|| in size, stay below
# float32's largest value, 3.4e38
_F32_SCALE_MAX = float(np.finfo(np.float32).max) / 16


@dataclass(frozen=True)
class SolverConfig(Document):
    gamma: float
    iters: int
    tol: float = 1e-3
    center_nodes: int = 256
    width_nodes: int = 64
    trace_every: int = 50
    # no field: the benchmark tracer reads it; delete with the next benchmark change
    integrator = "quadrature"

    def __post_init__(self):
        if not 0 <= self.gamma < math.inf:
            raise ConfigError(f"gamma must be finite and nonnegative, got {self.gamma!r}")
        if self.iters < 1:
            raise ConfigError("iteration count must be >= 1")
        if not 0 < self.tol < math.inf:
            raise ConfigError(f"tol must be finite and positive, got {self.tol!r}")
        if self.trace_every < 1:
            raise ConfigError("trace_every must be >= 1")

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

    ``_factor`` reads the rule from its own sketch K Omega^T of k = N G /
    (2 (N + G)) random-sign columns, the break-even rank: K is factored
    when at most h = k / 2 of the sketch's singular values exceed
    sqrt(eps) times the largest.  That count reads r8, the count of A's
    eigenvalues above eps times the largest, which earlier versions formed
    A to take: cli_fit (N = 300, G = 96 x 32) 50 vs 51 against h = 68,
    pii_full 47 vs 49 against h = 24.  A probe of h + 1 columns on every
    _PROBE_STRIDE-th node comes first and keeps K dense when all its
    values exceed that.  It can only say "dense", so a misreading costs
    time, never accuracy; and a column subset's singular values interlace
    below K's, so a full probe speaks for K.  Only a K that stays dense
    has its N x N Gram formed.

    The factor is kept only if max|K^T - M P| <= N eps entrywise: that is
    the worst-case rounding of the dense products it replaces, so abar and
    yhat stay as accurate as a full pass.  On cli_fit that takes r = 77-78,
    the rank where the sketch's singular values fall below eps times the
    largest (seeds 1, 7 and 41-43).

    A factored K keeps the leading q columns of M in float32 (M32, 0.64 MB
    on cli_fit beside the 1.9 MB float64 M), q the fewest whose dropped
    tail has R_tail = max_j ||M_j[q:]|| <= 2^-24 R, R = max_j ||M_j||:
    M's columns fall with the sketch's singular values, and cli_fit has
    q = 51-52 of r = 77.  The loop asks for K^T lam only through
    ``surface``, ``extrapolate``, ``integral`` and ``certificate_terms``.
    A factored surface is u = P lam with s32 = M32 fl32(u[:q]), and
    |s32_j - s_j| <= gamma_{q+2} ||M_j|| ||u|| + R_tail ||u[q:]|| (Higham,
    Accuracy and Stability of Numerical Algorithms, 3.1; gamma_n =
    n e / (1 - n e), e = 2^-24); the surface carries scale = R ||u||.  The
    extrapolated point is formed in float32 with scale (1 + beta) scale +
    beta scale_prev, and u in r-space: gamma_{q+6} covers its three
    roundings, and the tail, linear in u, is bounded at the extrapolated u.
    A node whose ||s32_j| - sqrt(2 gamma)| exceeds 2 gamma_{q+6} scale +
    R_tail ||u[q:]|| is on or off the support exactly as a float64 pass
    puts it; the others are undecided.  Exact float64 values come from
    M's rows on a block of nodes kept across steps, which holds the
    smaller side of the support and the undecided nodes (about 120 on
    cli_fit, the complement) and reaches _BLOCK_MARGIN sqrt(2 gamma)
    further; it is gathered again only when the side changes or a needed
    node falls outside it.  The rest comes from C: sum_on w s^2 =
    u^T C u - sum_off w s^2, W_on = W - W_off and yhat =
    P^T (C u - M_off^T (w s)_off).  So g, P, rel_gap and the violation are
    the float64 certificate.  On the cli_fit fits of seeds 1, 7 and 41 the
    float32 error stays under 7.8% of gamma_{q+6} scale and the tail term
    under 0.6% of the bound.  Two fallbacks take the exact pass s = M u: a
    smaller side above G/4 nodes, and a u with R ||u|| beyond
    _F32_SCALE_MAX or not finite.

    A dense K stays float64: a prototype of the same scheme on pii_full's
    6144 x 100 K ran 18-31% slower, since its row gathers and float32 copy
    cost more than the float32 pass saves.
    """

    def __init__(self, kernel, X, Z, W):
        self._args = (kernel, X, Z, W)
        self._step = max(1, _PRECOMPUTE_LIMIT // X.shape[0])
        G = Z.shape[0]
        self._rows = self._build(np.arange(G)) if G <= self._step else None
        self._basis = None  # P, once factored
        self._gram = None
        self._wsum = None  # W = sum of the weights ``norm`` was given

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

        A held K of low numerical rank is factored first (``_factor``), and
        the sum is then C = M^T diag(w) M.
        """
        if self._rows is not None and self._basis is None:
            self._factor()
        gram = 0.0
        for part, rows in self._chunks():
            root = np.sqrt(wts[part])[:, None]
            for j in range(0, rows.shape[0], _BLOCK):
                B = rows[j : j + _BLOCK] * root[j : j + _BLOCK]
                gram = gram + B.T @ B
        self._gram, self._wsum = gram, float(wts.sum())
        return float(np.linalg.eigvalsh(gram)[-1])

    def _factor(self) -> bool:
        """Replace the held K^T by M P; returns whether it did.

        P spans a random-sign sketch K Omega^T of K's column space, with
        Omega k x G and k = N G / (2 (N + G)); signs draw in 1 ms on cli_fit
        where Gaussians took 8, at the same r.  K is factored when at most
        h = N G / (4 (N + G)) of the sketch's singular values exceed
        sqrt(eps) times the largest; a probe of h + 1 columns on every
        _PROBE_STRIDE-th node keeps K dense first when all of its values
        do.  r starts at the number of the sketch's singular values above
        eps times the largest, and grows until max|K^T - M P| <= N eps,
        checked on _CHECK_BLOCK nodes at a time, so no N x G temporary is
        formed.  K stays when no r below k passes.
        """
        Kt = self._rows
        G, N = Kt.shape
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
                out += Kt[part].T @ (1.0 - 2.0 * np.unpackbits(bits[part], axis=1, count=cols))
            return out

        probe = sketch(_PROBE_STRIDE, h + 1)
        sq = np.linalg.eigvalsh(probe.T @ probe)  # its squared singular values
        if np.count_nonzero(sq > _EPS * sq[-1]) > h:
            return False
        U, sv, _ = np.linalg.svd(sketch(1, k), full_matrices=False)
        if not sv[0] > 0 or np.count_nonzero(sv > math.sqrt(_EPS) * sv[0]) > h:
            return False
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
                self._row_norm = float(np.sqrt(np.max(np.einsum("ij,ij->i", M, M))))
                # q, the leading columns the float32 pass reads: the fewest
                # whose dropped tail has max_j ||M_j[q:]|| <= 2^-24 R
                tail_sq, q = np.zeros(G), r
                while q > 0:
                    wider = tail_sq + np.square(M[:, q - 1])
                    if np.max(wider) > (2.0**-24 * self._row_norm) ** 2:
                        break
                    tail_sq, q = wider, q - 1
                self._tail_norm = float(np.sqrt(np.max(tail_sq)))
                # M32 column by column: its pass takes 15 us on cli_fit, row by row 27
                self._cols32 = np.ascontiguousarray(M[:, :q].T, dtype=np.float32)
                self._block = None
                n = q + 6
                # twice gamma_{q+6}, the bound of an extrapolated float32
                # value: the float32 errors seen on cli_fit stay under 7.8% of
                # gamma_{q+6} scale, and the factor 2 also covers the float64
                # pass's own rounding; the floor covers float32 underflow, at
                # most about (2 q + 6 + sqrt(q) R) 2^-149 per node
                self._f32_rel = 2.0 * n * 2.0**-24 / (1.0 - n * 2.0**-24)
                self._f32_floor = n * (1.0 + self._row_norm) * 2.0**-146
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

    def surface(self, lam):
        """abar = K^T lam at the nodes, as a _Surface (see the class docstring)."""
        if self._basis is None:
            return _Surface(None, self.rmatvec(lam), None)
        return self._surface(self._basis @ lam)

    def _surface(self, u):
        """The float32 pass for u = P lam, or the exact one outside float32's range."""
        peak = np.abs(u).max()  # nan when u holds one; u @ u cannot overflow below it
        norm_u = math.sqrt(u @ u) if peak <= _F32_SCALE_MAX else np.inf
        scale = self._row_norm * norm_u
        if max(norm_u, scale) <= _F32_SCALE_MAX:
            q = self._cols32.shape[0]
            return _Surface(u, u[:q].astype(np.float32) @ self._cols32, scale)
        return _Surface(u, self._rows @ u, None)

    def extrapolate(self, surf, prev, beta):
        """The surface of x + beta (x - x_prev) from those of x and x_prev, by linearity."""
        if not beta:
            return surf
        u = None if self._basis is None else surf.u + beta * (surf.u - prev.u)
        if surf.scale is None and prev.scale is None:
            return _Surface(u, surf.s + beta * (surf.s - prev.s), None)
        if surf.scale is None or prev.scale is None:
            return self._surface(u)
        s = surf.s - prev.s
        s *= np.float32(beta)
        s += surf.s
        return _Surface(u, s, (1.0 + beta) * surf.scale + beta * prev.scale)

    def integral(self, surf, wts, gamma) -> float:
        """sum_j w_j min(0, gamma - s_j^2 / 2) for the surface s, after ``norm(wts)``."""
        if surf.scale is not None:
            terms = self._float32_terms(surf, wts, gamma, with_yhat=False)
            if terms is not None:
                return gamma * terms[0] - 0.5 * terms[1]
            surf = _Surface(surf.u, self._rows @ surf.u, None)
        # min(0, gamma - s^2 / 2) = (min(s^2, 2 gamma) - s^2) / 2
        sq = surf.s * surf.s
        return 0.5 * float(wts @ (np.minimum(sq, 2.0 * gamma) - sq))

    def certificate_terms(self, lam, surf, wts, gamma):
        """(W_on, sum_on w s^2, the support's share of the nodes, yhat = K (w s 1_on)).

        on = |s| > sqrt(2 gamma) for the surface s of lam, after ``norm(wts)``.
        """
        if surf.scale is not None:
            terms = self._float32_terms(surf, wts, gamma, with_yhat=True)
            if terms is not None:
                return terms
            surf = _Surface(surf.u, self._rows @ surf.u, None)
        on = np.abs(surf.s) > np.sqrt(2.0 * gamma)
        ws = wts * surf.s
        sq = float((ws * on) @ surf.s)
        mass = float(wts @ on)
        return mass, sq, np.count_nonzero(on) / on.size, self.support_matvec(lam, ws, on)

    def _gather_nodes(self, surf, gamma):
        """(nodes, on_side) for a float32 surface; None when both sides exceed G/4 nodes.

        The needed nodes are the smaller side of the support as the float32
        values place it, the support itself (``on_side``) or its complement,
        with every node within the error bound of the threshold; every
        other node is where an exact float64 pass puts it.  ``nodes`` is the
        kept block, a superset of them, gathered again only when the side
        changes or a needed node falls outside it.
        """
        tau = math.sqrt(2.0 * gamma)
        tail = surf.u[self._cols32.shape[0] :]
        bound = self._f32_rel * surf.scale + self._tail_norm * math.sqrt(tail @ tail)
        bound += self._f32_floor
        bound += 2.0**-22 * (tau + bound)  # and the rounding of tau +- bound to float32
        a = np.abs(surf.s)
        limit = _GATHER_SHARE * a.size
        on_side, needed = False, a <= np.float32(tau + bound)  # off the support, or undecided
        count = np.count_nonzero(needed)
        if count > limit:
            on_side, needed = True, a > np.float32(tau - bound)  # on the support, or undecided
            count = np.count_nonzero(needed)
            if count > limit:
                return None
        block = self._block
        # fewer needed nodes in the block than in all: one of them fell outside it
        kept = block is not None and block.on_side == on_side
        if not (kept and np.count_nonzero(needed[block.nodes]) == count):
            edge = bound + _BLOCK_MARGIN * tau
            wide = a > np.float32(tau - edge) if on_side else a <= np.float32(tau + edge)
            nodes = np.flatnonzero(wide)
            block = self._block = _Block(nodes, on_side, self._rows[nodes])
        return block.nodes, on_side

    def _float32_terms(self, surf, wts, gamma, with_yhat):
        """``certificate_terms`` from a float32 surface; None when both sides exceed G/4 nodes.

        Exact float64 values come from M's rows at the gathered nodes only;
        the other side of the support enters through C and W.
        """
        gathered = self._gather_nodes(surf, gamma)
        if gathered is None:
            return None
        nodes, on_side = gathered
        rows = self._block.rows
        s = rows @ surf.u
        tau = math.sqrt(2.0 * gamma)
        side = np.abs(s) > tau if on_side else np.abs(s) <= tau
        ws = wts[nodes] * side
        mass = float(ws.sum())
        ws *= s
        sq = float(ws @ s)
        G = surf.s.size
        n_on = np.count_nonzero(side)
        if not on_side:
            cu = self._gram @ surf.u
            sq, mass, n_on = float(surf.u @ cu) - sq, self._wsum - mass, G - n_on
        yhat = None
        if with_yhat:
            part = ws @ rows
            yhat = self._lift(part if on_side else cu - part)
        return mass, sq, n_on / G, yhat


# the rows of M kept across steps: the nodes, the side of the support they
# hold, and M's rows there
_Block = namedtuple("_Block", "nodes on_side rows")


# abar = K^T lam at the nodes: u = P lam once factored, else None; s; and
# scale, None when s is exact, else the size R ||u|| its float32 error bound
# rests on
_Surface = namedtuple("_Surface", "u s scale")


# g, P, rel_gap, max_i c(yhat_i, y_i), alpha's share of the nodes, yhat = K (w * alpha)
_Certificate = namedtuple("_Certificate", "g primal rel_gap max_c support yhat")


def _certify(problem, lam, surface, wts, op, t):
    """The certificate of lambda, whose abar at the nodes is ``surface``."""
    gamma = problem.gamma
    mass, sq, support, yhat = op.certificate_terms(lam, surface, wts, gamma)
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
    s = s_prev = op.surface(x)
    g_x, theta, beta, t = 0.0, 1.0, 0.0, 0  # g(0) = 0
    while True:
        # the extrapolated point and its abar, by linearity
        lam = x + beta * (x - x_prev) if beta else x
        cert = _certify(problem, lam, op.extrapolate(s, s_prev, beta), wts, op, t)
        done = (cert.rel_gap <= config.tol and cert.max_c <= config.tol) or t == config.iters
        record(t, cert, done)
        if done:
            return lam, t, cert
        x_new = losses.prox(loss, lam - step * cert.yhat, y, step)
        s_new = op.surface(x_new)
        g_new = losses.phi(loss, x_new, y) + op.integral(s_new, wts, gamma)
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
                    writer.writerow([t, cert.g, cert.rel_gap, max(0.0, cert.max_c), cert.support])

        # overflow and NaN surface as a DivergenceError, not as warnings
        with np.errstate(over="ignore", invalid="ignore"):
            op = _NodeMatrix(kernel, samples.X, Z, W)
            lam, t, cert = _accelerated_ascent(problem, op, wts, config, record)
    converged = cert.rel_gap <= config.tol and cert.max_c <= config.tol
    state = DualState(lam, t, g_trace, converged, *cert[:4])
    return state, AlphaField(samples, lam, config.gamma, kernel, variant)
