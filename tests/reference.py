"""Scalar reference implementations that tests compare the program against.

``value`` and ``grad`` evaluate one kernel and its analytic partials at one
pair of points; ``BumpField`` is a piecewise-constant coefficient field
built from a discrete model.  The package itself evaluates kernels only in
batches, every one through ``kernels.gaussian`` of ``kernels.sqdist``.
``polish_model`` is the package's polish as first written: backtracking
steps of length ``step`` along the normalised gradient, one numpy call per
operation.  Where the fit has fewer samples than parameters the package's
polish takes the same steps and must match it bit for bit; elsewhere it
takes trust-region Gauss-Newton steps and must end at an SSE no higher.
``accelerated_ascent`` is the solver's FISTA loop on a held K small enough
to be certified whole, one numpy call per operation; ``solver.fit`` must
match it bit for bit there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sparsekern import kernels
from sparsekern.dual_field import Quadrature, _midpoints, quadrature_nodes
from sparsekern.datasets import SampleSet
from sparsekern.errors import DomainError
from sparsekern.extraction import _RIDGE
from sparsekern.kernels import KernelSpec, _check_width
from sparsekern.models import DiscreteModel


def value(spec: KernelSpec, x, z, w: float) -> float:
    """k(x, z; w) for a single pair of points."""
    _check_width(spec, w)
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    d2 = float(np.sum((x - z) ** 2))
    return float(np.exp(-d2 / (2.0 * w * w)))


def grad(spec: KernelSpec, x, z, w: float):
    """Analytic partials (dk/dz, dk/dw) of the Gaussian kernel.

    dk/dz = k * (x - z) / w^2 and dk/dw = k * ||x - z||^2 / w^3.
    """
    _check_width(spec, w)
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    diff = x - z
    d2 = float(np.sum(diff**2))
    k = np.exp(-d2 / (2.0 * w * w))
    dk_dz = k * diff / (w * w)
    dk_dw = k * d2 / (w**3)
    return dk_dz, float(dk_dw)


@dataclass(frozen=True, eq=False)
class BumpField:
    """Piecewise-constant coefficient field made of unit-mass box bumps.

    Each model term (a_j, z_j, w_j) contributes a product of 1-D bumps
    (m/2) * 1[|t| < 1/m] centered at its parameters, so each bump carries
    total mass a_j and the field's prediction converges to the model's as
    m grows.
    """

    model: DiscreteModel
    m: int
    kernel: KernelSpec

    def __post_init__(self):
        if self.m < 1:
            raise DomainError("m must be >= 1")
        half = 1.0 / self.m
        box = self.kernel.box
        for z, w in zip(self.model.centers, self.model.widths):
            if np.any(z - half < box[:, 0]) or np.any(z + half > box[:, 1]):
                raise DomainError("bump support escapes the center box")
            if w - half < self.kernel.w_lo or w + half > self.kernel.w_hi:
                raise DomainError("bump support escapes the width domain")

    @property
    def height(self) -> float:
        p = self.model.dim
        return (self.m / 2.0) ** (p + 1)

    def value(self, z, w: float) -> float:
        z = np.asarray(z, dtype=float).ravel()
        half = 1.0 / self.m
        total = 0.0
        for a, zj, wj in zip(self.model.amplitudes, self.model.centers, self.model.widths):
            if abs(w - wj) < half and np.all(np.abs(z - zj) < half):
                total += a * self.height
        return total

    def value_at_nodes(self, Z, W) -> np.ndarray:
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        W = np.asarray(W, dtype=float).ravel()
        half = 1.0 / self.m
        out = np.zeros(Z.shape[0])
        for a, zj, wj in zip(self.model.amplitudes, self.model.centers, self.model.widths):
            inside = (np.abs(W - wj) < half) & np.all(np.abs(Z - zj[None, :]) < half, axis=1)
            out[inside] += a * self.height
        return out

    def integral(self) -> float:
        """Total mass of the field: exactly sum_j a_j for interior supports."""
        return float(np.sum(self.model.amplitudes))

    def predict(self, x, nodes_per_axis: int = 16) -> float:
        """Integral of the field against k(x, .), one sub-grid per bump."""
        x = np.asarray(x, dtype=float).ravel()
        half = 1.0 / self.m
        total = 0.0
        for a, zj, wj in zip(self.model.amplitudes, self.model.centers, self.model.widths):
            axes = [
                _midpoints(c - half, c + half, nodes_per_axis)[0]
                for c in np.append(zj, wj)
            ]
            cell = (2.0 * half / nodes_per_axis) ** (len(axes))
            mesh = np.meshgrid(*axes, indexing="ij")
            flat = [m.ravel() for m in mesh]
            Z = np.stack(flat[:-1], axis=1)
            W = flat[-1]
            kx = kernels.cross(self.kernel, x.reshape(1, -1), Z, W)[0]
            total += a * self.height * cell * np.sum(kx)
        return float(total)


def polish_model(
    model: DiscreteModel,
    samples: SampleSet,
    kernel: KernelSpec,
    steps: int = 100,
    refine_widths: bool = False,
) -> DiscreteModel:
    """Local descent on training SSE over the term parameters.

    Alternates closed-form amplitude refits with backtracking gradient
    steps on the centers (and widths when requested), keeping them inside
    the kernel domain.  The SSE never increases, so the polished model is
    at least as good on the training data as its seed.
    """
    if model.n_terms == 0 or steps == 0:
        return model
    Z, W, J = model.centers, model.widths, model.n_terms
    X, y, box = samples.X, samples.y, kernel.box
    ridge = _RIDGE * np.eye(J)

    def refit(Phi):
        amps = np.linalg.solve(Phi.T @ Phi + ridge, Phi.T @ y)
        r = y - Phi @ amps
        return amps, r, float(r @ r)

    # W lies in the width domain: the Gaussian straight from the distances,
    # by the arithmetic of kernels.gaussian
    d2 = kernels.sqdist(X, Z)
    Phi = np.exp(d2 / (-2.0 * W**2))
    amps, resid, sse = refit(Phi)
    step = 0.1 * float(np.min(W))
    for _ in range(steps):
        # dSSE/dz_j = -2 a_j sum_i r_i dk(x_i, z_j; w_j)/dz_j
        M = (resid[:, None] * Phi) * amps[None, :]
        gz = -2.0 * (M.T[:, :, None] * (X[None, :, :] - Z[:, None, :])).sum(axis=1)
        gz /= (W**2)[:, None]
        gw = -2.0 * (M * d2).sum(axis=0) / W**3 if refine_widths else np.zeros(J)
        norm = np.sqrt(np.sum(gz**2) + np.sum(gw**2))
        if norm == 0.0 or not np.isfinite(norm):
            break
        improved = False
        while step > 1e-12 * float(np.min(W)):
            Zp = np.clip(Z - step * gz / norm, box[:, 0], box[:, 1])
            Wp = np.clip(W - step * gw / norm, kernel.w_lo, kernel.w_hi)
            # as for Phi above
            d2_p = kernels.sqdist(X, Zp)
            Phi_p = np.exp(d2_p / (-2.0 * Wp**2))
            amps_p, resid_p, sse_p = refit(Phi_p)
            if sse_p < sse:
                Z, W, Phi, d2, amps, resid, sse = Zp, Wp, Phi_p, d2_p, amps_p, resid_p, sse_p
                step *= 1.5
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return DiscreteModel(amps, Z, W)


def accelerated_ascent(problem, config, lam, g, trace_every=50):
    """The solver's ascent from (lam, g(lam)) on the dense K^T of the config's nodes.

    FISTA with step 1/L, L the largest eigenvalue of A = w K K^T: from the
    extrapolated point lam + beta (lam - lam_prev), a gradient step on the
    integral, then the prox of phi.  A step that does not raise g restarts
    the momentum, or halves the step when there is none.  Every point it
    extrapolates to is certified from every node, abar = K^T lam extrapolated
    by linearity: g, the primal value P, rel_gap = |P - g| / max(1, |P|)
    and max_i c(yhat_i, y_i).  It stops when both are at most ``tol``, or
    certifies the iterate itself at ``iters``.  Returns (lam, t, trace,
    converged, (g, P, rel_gap, max_c)), the trace holding (t, g, rel_gap,
    max(0, max_c), support fraction) every ``trace_every``-th step and at
    the last.  Symmetric losses only: the step's prox is a soft threshold.
    """
    loss, X, y, gamma = problem.loss, problem.samples.X, problem.samples.y, problem.gamma
    Z, W, wts = quadrature_nodes(problem.kernel, problem.variant, Quadrature(config.center_nodes, config.width_nodes))
    Kt = np.ascontiguousarray(kernels.cross(problem.kernel, X, Z, W).T)
    G, w = Kt.shape[0], float(wts[0])
    rate = math.sqrt(loss.epsilon) if loss.kind == "quadratic_eps" else loss.epsilon
    tau = math.sqrt(2.0 * gamma)

    def phi(lam):
        return float(np.dot(lam, y) - rate * np.sum(np.abs(lam)))

    step = 1.0 / max(float(np.linalg.eigh(w * (Kt.T @ Kt))[0][-1]), 1e-300)
    x, x_prev = lam, lam
    s = Kt @ x
    s_prev = s
    g_x = g
    theta, beta, t = 1.0, 0.0, 0
    trace = []
    while True:
        lam, abar = (x + beta * (x - x_prev), s + beta * (s - s_prev)) if beta else (x, s)
        on = np.abs(abar) > tau
        alpha = abar * on
        n_on = int(np.count_nonzero(on))
        mass = w * n_on
        sq = w * float(alpha @ alpha)
        yhat = w * (alpha @ Kt)
        g = phi(lam) + gamma * mass - 0.5 * sq
        primal = gamma * mass + 0.5 * sq
        if loss.kind == "quadratic_eps":
            max_c = float(np.max((yhat - y) ** 2 - loss.epsilon))
        else:
            max_c = float(np.max(np.abs(yhat - y) - loss.epsilon))
        rel_gap = abs(primal - g) / max(1.0, abs(primal))
        converged = rel_gap <= config.tol and max_c <= config.tol
        done = converged or t == config.iters
        if t % trace_every == 0 or done:
            trace.append((t, g, rel_gap, max(0.0, max_c), n_on / G))
        if done:
            return lam, t, trace, converged, (g, primal, rel_gap, max_c)
        v = lam - step * yhat
        u = v + step * y
        x_new = np.sign(u) * np.maximum(np.abs(u) - step * rate, 0.0)
        s_new = Kt @ x_new
        sq_new = s_new * s_new
        g_new = phi(x_new) + 0.5 * w * float(np.sum(np.minimum(sq_new, 2.0 * gamma) - sq_new))
        t += 1
        if g_new >= g_x:
            x_prev, s_prev, x, s, g_x = x, s, x_new, s_new, g_new
            theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
            beta, theta = (theta - 1.0) / theta_next, theta_next
        elif beta:
            theta, beta = 1.0, 0.0
        else:
            step *= 0.5
        if t == config.iters:
            beta = 0.0
