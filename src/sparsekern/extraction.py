"""Turn a fitted coefficient field into a small discrete kernel model.

Peaks of |abar(z, w)| above the threshold become kernel (center, width)
pairs: a coarse grid scan proposes candidates, an ascent by Newton's step
on -|H| (H the Hessian of |abar|) with backtracking refines them, and
nearby candidates are merged.  Amplitudes are then refit by (ridge) least
squares on the training samples, since the field's magnitude is not the
series coefficient.  ``polish_model`` then refines the terms jointly:
trust-region Gauss-Newton steps on the training SSE over the centers (and
widths), the amplitudes projected out, where there are at least as many
samples as parameters, and normalised-gradient steps where there are not.
It stops at first-order stationarity, when no trial step lowers the SSE,
or at its step cap.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import kernels
from .datasets import SampleSet
# the benchmark tracer wraps quadrature_nodes here too; delete it with the next benchmark change
from .dual_field import AlphaField, Quadrature, quadrature_grid, quadrature_nodes  # noqa: F401
from .errors import ConfigError
from .kernels import KernelSpec
from .models import DiscreteModel

# the cap on the Newton steps that refine each scanned peak candidate
_REFINE_STEPS = 50
_EPS = np.finfo(float).eps
# the amplitude solves' ridge: it keeps coincident terms solvable
_RIDGE = 1e-10
# subdivided_peaks' seed spacing, in units of w0, and its scan's node count
_SUBDIVIDE_SPACING = 0.6
_SUBDIVIDE_SCAN = 1024
# polish_model stops once no free coordinate's projected Jacobian column has
# a cosine above this with the residual.  On the seed-0 desk pii_full seeds
# it ends 0.24% above the SSE of polishing to the cap with no such stop, in
# 28% of the time; komp_sparsity's median training MSE is the same
_STATIONARY = 1e-2


@dataclass(frozen=True)
class PeakConfig:
    grid_centers: int = 64
    grid_widths: int = 32
    merge_radius: float | None = None  # None: 0.5 * width of the stronger peak

    def __post_init__(self):
        if self.merge_radius is not None and not self.merge_radius > 0:
            raise ConfigError("merge_radius must be positive")


def _grid_local_maxima(vals: np.ndarray, shape, axes) -> np.ndarray:
    """Flat indices whose value is >= each neighbor's along the given axes."""
    v = vals.reshape(shape)
    keep = np.ones_like(v, dtype=bool)
    for ax in axes:
        lo = [slice(None)] * v.ndim
        hi = [slice(None)] * v.ndim
        lo[ax] = slice(None, -1)
        hi[ax] = slice(1, None)
        up = np.ones_like(v, dtype=bool)
        dn = np.ones_like(v, dtype=bool)
        up[tuple(lo)] = v[tuple(lo)] >= v[tuple(hi)]
        dn[tuple(hi)] = v[tuple(hi)] >= v[tuple(lo)]
        keep &= up & dn
    return np.flatnonzero(keep.ravel())


def _refine(field: AlphaField, Z, W, moving: np.ndarray, steps: int, step0: np.ndarray):
    """Batched modified-Newton ascent on |abar| with per-candidate backtracking.

    Each step moves by V |L|^-1 V^T g, Newton's step on -|H| for the
    gradient g and Hessian H = V L V^T of |abar| in the ``moving`` coordinates
    (those at a bound that the gradient pushes outward held fixed), no
    longer than the candidate's step length.  Where H < 0 that is Newton's
    own step; elsewhere it still climbs, scaled by the curvature (Nocedal &
    Wright, Numerical Optimization, section 3.4).  A proposal is accepted
    only if it does not lower |abar| by more than the rounding bound of the
    two values; otherwise the step length halves below the rejected move.
    A candidate retires once its move falls below rounding level, or after
    a full Newton step below sqrt(eps), and ``steps`` caps the steps.
    """
    p = field.kernel.dim
    lo, hi = field.kernel.bounds
    eye = np.eye(np.count_nonzero(moving))
    P = np.column_stack([Z, W])  # the coordinates (z, w) of each candidate
    step = step0.copy()
    n_eps = field.samples.n * _EPS

    def derivatives(P):
        """|abar|, its rounding bound, and its gradient and Hessian in the moving coordinates."""
        vals, gz, gw, hess, mass = field.smooth_derivatives(P[:, :p], P[:, p])
        sgn = np.where(vals < 0.0, -1.0, 1.0)
        grad = sgn[:, None] * np.column_stack([gz, gw])[:, moving]
        hess = sgn[:, None, None] * hess[:, moving][:, :, moving]
        return np.abs(vals), n_eps * mass, grad, hess

    best, err, grad, hess = derivatives(P)
    active = np.arange(P.shape[0])
    for _ in range(steps):
        at, g, H = P[active], grad[active], hess[active]
        # a coordinate at its bound whose gradient points outward stays there
        held = np.where(g < 0.0, at[:, moving] <= lo[moving], at[:, moving] >= hi[moving])
        if held.any():
            g = np.where(held, 0.0, g)
            H = np.where(held[:, :, None] | held[:, None, :], 0.0, H) - held[:, :, None] * eye
        L, V = np.linalg.eigh(H)  # eigenvalues in ascending order
        concave = L[:, -1] < 0.0
        # a flat direction's |L| is floored at eps max|L|; H = 0 gives no move
        L = np.abs(L)
        L = np.maximum(L, _EPS * L.max(axis=1, keepdims=True))
        Vg = (g[:, None, :] @ V)[:, 0]
        move = (V @ np.divide(Vg, L, out=np.zeros_like(Vg), where=L > 0)[:, :, None])[:, :, 0]
        length = np.sqrt(np.sum(move**2, axis=1))
        newton = concave & (length <= step[active])
        cap = np.where(newton, length, step[active])
        move *= np.divide(cap, length, out=np.zeros_like(cap), where=length > 0)[:, None]
        prop = at.copy()
        prop[:, moving] += move
        np.clip(prop, lo, hi, out=prop)
        size = np.max(np.abs(prop - at) / (np.abs(at) + at[:, p:]), axis=1)
        # a move within rounding of the coordinates retires the candidate, and
        # so does a full Newton step within sqrt(eps) of them, once taken:
        # Newton's error squares, so it lands within rounding of the peak
        still = size <= _EPS
        last = (newton & (size <= math.sqrt(_EPS)))[~still]
        active, prop, cap = active[~still], prop[~still], cap[~still]
        if active.size == 0:
            break
        pbest, perr, pgrad, phess = derivatives(prop)
        # no drop beyond the rounding of the two values: near a peak a Newton
        # step raises |abar| by less than that, and the gradient shows the gain
        better = pbest >= best[active] - (err[active] + perr)
        taken = active[better]
        P[taken], best[taken], err[taken] = prop[better], pbest[better], perr[better]
        grad[taken], hess[taken] = pgrad[better], phess[better]
        step[active[~better]] = 0.5 * cap[~better]
        active = active[~(better & last)]
    return P[:, :p], P[:, p], best


def find_peaks(field: AlphaField, cfg: PeakConfig | None = None):
    """Local maxima of |abar| above the threshold, strongest first.

    Returns a list of (center, width) pairs.  For the fixed-width variant
    the ascent moves centers only; for fixed centers, widths only.
    """
    cfg = cfg or PeakConfig()
    threshold, kernel, kind = field.threshold, field.kernel, field.variant.kind
    p = kernel.dim
    # the coordinates of (z, w) that a peak moves along: those the variant does not fix
    moving = np.array([kind != "fixed_centers"] * p + [kind != "fixed_width"])
    # a scanned axis needs two nodes to have a local maximum along it
    for name, scanned in (("grid_centers", moving[0]), ("grid_widths", moving[-1])):
        if scanned and getattr(cfg, name) < 2:
            raise ConfigError(f"PeakConfig.{name} must be at least 2 on a scanned axis, got {getattr(cfg, name)}")
    quad = Quadrature(cfg.grid_centers, cfg.grid_widths)
    centers, widths, _ = quadrature_grid(kernel, field.variant, quad)
    vals = np.abs(field.lam @ kernels.grid(kernel, field.samples.X, centers, widths))

    # nodes run centers x widths, widths fastest: a mesh axis per center
    # coordinate, or one axis of fixed centers; maxima run along moving axes
    shape = ((cfg.grid_centers,) * p if moving[0] else (len(centers),)) + (widths.size,)
    cand = _grid_local_maxima(vals, shape, np.flatnonzero(moving[-len(shape):]))
    cand = cand[vals[cand] > threshold]
    if cand.size == 0:
        return []
    c, k = np.divmod(cand, widths.size)

    # the first step is half the largest scan spacing along a moving axis
    lo, hi = kernel.bounds
    spacing = (hi - lo) / np.append(np.full(p, cfg.grid_centers), cfg.grid_widths)
    step0 = np.full(cand.size, 0.5 * spacing[moving].max())
    Zr, Wr, mag = _refine(field, centers[c], widths[k], moving, _REFINE_STEPS, step0)

    peaks = []
    for i in np.argsort(-mag):
        z, w = Zr[i], float(Wr[i])
        # merged into a stronger peak within merge_radius (or half its width)
        if mag[i] > threshold and not any(
            np.sum((z - zk) ** 2) + (w - wk) ** 2 <= (cfg.merge_radius or 0.5 * wk) ** 2 for zk, wk in peaks
        ):
            peaks.append((z, w))
    return peaks


def subdivided_peaks(field: AlphaField):
    """Kernel seeds for wide plateaus of a fixed-width field.

    The thresholded support of a fixed-width field can be a union of
    intervals much wider than the kernel itself; a single extreme point
    under-represents such an island.  This scans the center axis, splits
    the support into connected islands, and gives each island of scanned
    length L and peak height h the seed count

        n = 1 + ceil(max(0, L - F) / (s w0)),
        F = 2 w0 sqrt(2 ln(h / threshold)),

    where s is _SUBDIVIDE_SPACING and F is the above-threshold footprint
    of a lone kernel of height h (the whole axis at threshold 0).
    So a kernel-shaped island, including one clipped by the box, gets one
    seed, placed at the island's scan argmax (its peak); wider islands get
    n seeds at equal mass quantiles of |abar|.
    """
    if field.variant.kind != "fixed_width":
        raise ConfigError("subdivided_peaks applies to fixed-width fields")
    if field.kernel.dim != 1:
        raise ConfigError("subdivided_peaks scans a single center axis")
    w0 = field.variant.w0
    lo, hi = field.kernel.box[0]
    zs = np.linspace(lo, hi, _SUBDIVIDE_SCAN)
    vals = np.abs(field.smooth_at_nodes(zs.reshape(-1, 1), np.full(_SUBDIVIDE_SCAN, w0)))
    thr = field.threshold
    above = vals > thr
    edges = np.flatnonzero(np.diff(np.concatenate([[0], above.astype(int), [0]])))
    peaks = []
    for a, b in edges.reshape(-1, 2):
        z_seg, v_seg = zs[a:b], vals[a:b]
        # at threshold 0 a lone kernel covers the whole axis
        footprint = 2.0 * w0 * np.sqrt(2.0 * np.log(v_seg.max() / thr)) if thr > 0 else np.inf
        excess = max(0.0, z_seg[-1] - z_seg[0] - footprint)
        n = 1 + int(np.ceil(excess / (_SUBDIVIDE_SPACING * w0)))
        if n == 1:
            peaks.append((np.array([z_seg[np.argmax(v_seg)]]), w0))
            continue
        cum = np.cumsum(v_seg)
        cum = cum / cum[-1]
        centers = np.interp((np.arange(n) + 0.5) / n, cum, z_seg)
        peaks.extend((np.array([c]), w0) for c in centers)
    return peaks


def refit_amplitudes(peaks, samples: SampleSet, kernel: KernelSpec) -> DiscreteModel:
    """Least-squares amplitudes for the given (center, width) pairs.

    Solves the ridge normal equations; a singular system is reported and
    retried with ridge 1e-8.
    """
    if len(peaks) == 0:
        raise ConfigError("refit needs at least one peak")
    Z = np.stack([np.asarray(z, dtype=float).ravel() for z, _ in peaks])
    W = np.asarray([w for _, w in peaks], dtype=float)
    Phi = kernels.cross(kernel, samples.X, Z, W)
    G = Phi.T @ Phi
    b = Phi.T @ samples.y
    try:
        amps = np.linalg.solve(G + _RIDGE * np.eye(len(peaks)), b)
        if not np.all(np.isfinite(amps)):
            raise np.linalg.LinAlgError("non-finite solution")
    except np.linalg.LinAlgError:
        warnings.warn("rank-deficient refit system; retrying with ridge=1e-8")
        amps = np.linalg.solve(G + 1e-8 * np.eye(len(peaks)), b)
    return DiscreteModel(amps, Z, W)


def _trust_step(L, V, g, radius):
    """The step d minimising g.d + d.H d / 2 over |d| <= radius, and its length.

    H = V diag(L) V^T is positive semidefinite.  The step is -(H + lam I)^-1 g
    with lam = 0 if that lies inside the region, else the lam > 0 that puts
    it on the boundary (to 1%), found by Newton's method on 1/radius - 1/|d(lam)|
    from a lam on its left, where that function is convex and decreasing,
    so the iterates climb to the root (More & Sorensen 1983; Nocedal &
    Wright, Numerical Optimization, algorithm 4.3).  Eigenvalues below
    eps max(L) count as eps max(L).
    """
    c = V.T @ g
    L = np.maximum(L, _EPS * L[-1])
    # |d(lam)| >= |c| / (max(L) + lam): no larger lam is left of the root
    lam = max(0.0, math.sqrt(c @ c) / radius - L[-1])
    while True:
        d = c / (L + lam)
        length = math.sqrt(d @ d)
        if length <= 1.01 * radius:
            return -(V @ d), length
        lam += (length / radius - 1.0) * (d @ d) / (d @ (d / (L + lam)))


def polish_model(
    model: DiscreteModel,
    samples: SampleSet,
    kernel: KernelSpec,
    steps: int = 100,
    refine_widths: bool = False,
) -> DiscreteModel:
    """Trust-region descent on training SSE over the term parameters.

    The moving coordinates are the centers, and the widths when requested;
    the amplitudes are always the closed-form ridge refit, projected out
    (variable projection: Golub & Pereyra, SIAM J. Numer. Anal. 1973).  Each
    step takes ``_trust_step`` on the Gauss-Newton model of the SSE: its
    gradient g = -2 J^T r, where column (j, k) of J is a_j d phi_j / d
    theta_jk and r the residual, and its curvature 2 Jp^T Jp, with Jp the
    part of J orthogonal to the kernel columns (Kaufman, BIT 1975); a
    coordinate at a bound that -g pushes outward is held.  With fewer
    samples than the J (m + 1) parameters of J terms of m moving
    coordinates, Jp has rank below J m and the curvature is taken as zero:
    the step is then -radius g / |g| over every moving coordinate.

    The trust radius starts at 0.1 min(w), grows by 1.5 on an accepted trial
    and halves (below the rejected step) on a rejected one, down to 1e-12
    min(w).  A trial is clipped into the kernel domain and accepted only if
    its SSE is lower, so the polished model is at least as good on the
    training data as its seed.  With curvature the polish stops at
    first-order stationarity, |g_k| / 2 at most ``_STATIONARY`` |Jp_k| |r|
    for every coordinate not held, and without it J is never formed.  It
    also stops when no trial descends, or after ``steps`` steps, a cap.
    """
    if model.n_terms == 0 or steps == 0:
        return model
    Z, W, J = model.centers, model.widths, model.n_terms
    X, y, p = samples.X, samples.y, kernel.dim
    lo, hi = kernel.bounds
    moving = np.array([True] * p + [refine_widths])
    curved = samples.n >= J * (p + refine_widths + 1)
    ridge = _RIDGE * np.eye(J)

    def refit(Phi):
        amps = np.linalg.solve(Phi.T @ Phi + ridge, Phi.T @ y)
        r = y - Phi @ amps
        return amps, r, float(r @ r)

    d2 = kernels.sqdist(X, Z)
    Phi = kernels.gaussian(d2, W)
    amps, resid, sse = refit(Phi)
    theta = np.column_stack([Z, W])  # each term's coordinates (z, w)
    step = 0.1 * float(W.min())
    for _ in range(steps):
        diff = X[None, :, :] - Z[:, None, :]
        # dSSE/dz_j = -2 a_j sum_i r_i dk(x_i, z_j; w_j)/dz_j
        M = resid[:, None] * Phi * amps
        gz = -2.0 * (M.T[:, :, None] * diff).sum(axis=1)
        gz /= (W**2)[:, None]
        gw = -2.0 * (M * d2).sum(axis=0) / W**3 if refine_widths else np.zeros(J)
        norm = math.sqrt((gz * gz).sum() + (gw * gw).sum())
        if norm == 0.0 or not math.isfinite(norm):
            break
        g = np.column_stack([gz, gw])
        if curved:
            # J's column (j, k), a_j d phi_j / d theta_jk, less its part in the
            # span of the kernel columns, which the amplitudes absorb
            A = Phi * amps
            dz = A[:, :, None] * diff.transpose(1, 0, 2) / (W**2)[:, None]
            jac = np.concatenate([dz, (A * d2 / W**3)[:, :, None]], axis=2).reshape(len(y), -1)
            jac -= Phi @ np.linalg.solve(Phi.T @ Phi + ridge, Phi.T @ jac)
            # a coordinate at its bound that -g pushes outward is held
            free = (moving & np.where(g > 0.0, theta > lo, theta < hi)).ravel()
            gf, gram = g.ravel()[free], jac[:, free].T @ jac[:, free]
            # each free coordinate's cosine |Jp_k^T r| / (|Jp_k| |r|): g_k = -2 Jp_k^T r,
            # and |Jp_k|^2 is on the gram's diagonal
            if np.all(np.abs(gf) <= 2.0 * _STATIONARY * math.sqrt(sse) * np.sqrt(np.diag(gram))):
                break
            L, V = np.linalg.eigh(2.0 * gram)
        # W changes only when a trial is taken: one floor per step
        floor = 1e-12 * float(W.min())
        while step > floor:
            if curved:
                move = np.zeros(theta.size)
                move[free], length = _trust_step(L, V, gf, step)
                move = move.reshape(theta.shape)
            else:
                move, length = -(step * g / norm), step
            # min(max(.)) is np.clip's arithmetic
            prop = np.minimum(np.maximum(theta + move, lo), hi)
            Zp, Wp = prop[:, :p], prop[:, p]
            d2_p = kernels.sqdist(X, Zp)
            Phi_p = kernels.gaussian(d2_p, Wp)
            amps_p, resid_p, sse_p = refit(Phi_p)
            if sse_p < sse:
                theta, Z, W, Phi, d2, amps, resid, sse = prop, Zp, Wp, Phi_p, d2_p, amps_p, resid_p, sse_p
                step *= 1.5
                break
            step = 0.5 * min(step, length)
        else:  # no trial lowered the SSE
            break
    return DiscreteModel(amps, Z, W)


def extract_model(
    field: AlphaField, samples: SampleSet, cfg: PeakConfig | Callable | None = None
) -> DiscreteModel:
    """Seed (center, width) pairs, then refit_amplitudes; empty model without seeds.

    ``cfg`` is a PeakConfig for find_peaks, or a function of the field that
    returns the seeds itself, such as subdivided_peaks.
    """
    peaks = cfg(field) if callable(cfg) else find_peaks(field, cfg)
    if not peaks:
        return DiscreteModel.empty(field.kernel.dim)
    return refit_amplitudes(peaks, samples, field.kernel)
