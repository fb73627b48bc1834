"""Turn a fitted coefficient field into a small discrete kernel model.

Peaks of |abar(z, w)| above the threshold become kernel (center, width)
pairs: a coarse grid scan proposes candidates, gradient ascent with
backtracking refines them, and nearby candidates are merged.  Amplitudes
are then refit by (ridge) least squares on the training samples, since
the field's magnitude is not the series coefficient.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .datasets import SampleSet
from .dual_field import AlphaField, Quadrature, quadrature_nodes
from .errors import ConfigError
from .kernels import KernelSpec
from .models import DiscreteModel

# gradient-ascent steps that refine each scanned peak candidate
_REFINE_STEPS = 50


@dataclass(frozen=True)
class PeakConfig:
    grid_centers: int = 64
    grid_widths: int = 32
    merge_radius: float | None = None  # None: 0.5 * width of the stronger peak

    def __post_init__(self):
        if self.grid_centers < 2 or self.grid_widths < 2:
            raise ConfigError("peak grids need at least 2 nodes per axis")
        if self.merge_radius is not None and not self.merge_radius > 0:
            raise ConfigError("merge_radius must be positive")


def _scan_grid(field: AlphaField, cfg: PeakConfig):
    quad = Quadrature(cfg.grid_centers, cfg.grid_widths)
    return quadrature_nodes(field.kernel, field.variant, quad)


def _grid_local_maxima(vals: np.ndarray, shape) -> np.ndarray:
    """Flat indices whose value is >= every axis-neighbor value."""
    v = vals.reshape(shape)
    keep = np.ones_like(v, dtype=bool)
    for ax in range(v.ndim):
        if v.shape[ax] == 1:
            continue
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


def _refine(field: AlphaField, Z, W, steps: int, step0: np.ndarray):
    """Batched gradient ascent on |abar| with per-candidate backtracking.

    The trajectory value is non-decreasing: a proposal is only accepted if
    it does not lower |abar|; otherwise the candidate's step is halved.
    """
    kernel = field.kernel
    variant = field.variant
    move_z = variant.kind in ("full", "fixed_width")
    move_w = variant.kind in ("full", "fixed_centers")
    Z = Z.copy()
    W = W.copy()
    step = step0.copy()
    vals, gz, gw = field.smooth_with_grad(Z, W)
    best = np.abs(vals)
    for _ in range(steps):
        sgn = np.sign(vals)
        sgn[sgn == 0] = 1.0
        dz = gz * sgn[:, None] if move_z else np.zeros_like(gz)
        dw = gw * sgn if move_w else np.zeros_like(gw)
        norm = np.sqrt(np.sum(dz**2, axis=1) + dw**2)
        norm[norm == 0] = 1.0
        Zp = Z + step[:, None] * dz / norm[:, None] if move_z else Z
        Wp = W + step * dw / norm if move_w else W
        Zp = np.clip(Zp, kernel.box[:, 0], kernel.box[:, 1])
        Wp = np.clip(Wp, kernel.w_lo, kernel.w_hi)
        pvals, pgz, pgw = field.smooth_with_grad(Zp, Wp)
        better = np.abs(pvals) >= best
        Z[better] = Zp[better]
        W[better] = Wp[better]
        vals = np.where(better, pvals, vals)
        gz[better] = pgz[better]
        gw = np.where(better, pgw, gw)
        best = np.abs(vals)
        step = np.where(better, step, step * 0.5)
    return Z, W, best


def find_peaks(field: AlphaField, cfg: PeakConfig | None = None):
    """Local maxima of |abar| above the threshold, strongest first.

    Returns a list of (center, width) pairs.  For the fixed-width variant
    the ascent moves centers only; for fixed centers, widths only.
    """
    cfg = cfg or PeakConfig()
    threshold = field.threshold
    Z, W, _ = _scan_grid(field, cfg)
    vals = np.abs(field.smooth_at_nodes(Z, W))

    if field.variant.kind == "fixed_centers":
        # maxima along the width axis only; never across distinct centers
        v = vals.reshape((field.variant.centers.shape[0], cfg.grid_widths))
        keep = np.ones_like(v, dtype=bool)
        keep[:, :-1] &= v[:, :-1] >= v[:, 1:]
        keep[:, 1:] &= v[:, 1:] >= v[:, :-1]
        cand = np.flatnonzero(keep.ravel())
    else:
        shape = (cfg.grid_centers,) * field.kernel.dim
        if field.variant.kind == "full":
            shape = shape + (cfg.grid_widths,)
        cand = _grid_local_maxima(vals, shape)
    cand = cand[vals[cand] > threshold]
    if cand.size == 0:
        return []

    box = field.kernel.box
    span = float(np.min(box[:, 1] - box[:, 0]))
    step0 = np.full(
        cand.size, 0.5 * max(span / cfg.grid_centers, (field.kernel.w_hi - field.kernel.w_lo) / cfg.grid_widths)
    )
    Zr, Wr, mag = _refine(field, Z[cand], W[cand], _REFINE_STEPS, step0)

    order = np.argsort(-mag)
    peaks = []
    for i in order:
        if mag[i] <= threshold:
            continue
        z, w = Zr[i], float(Wr[i])
        merged = False
        for zk, wk in peaks:
            radius = cfg.merge_radius if cfg.merge_radius is not None else 0.5 * wk
            if np.sum((z - zk) ** 2) + (w - wk) ** 2 <= radius**2:
                merged = True
                break
        if not merged:
            peaks.append((z, w))
    return peaks


def subdivided_peaks(field: AlphaField, spacing_factor: float = 0.6, scan_nodes: int = 1024):
    """Kernel seeds for wide plateaus of a fixed-width field.

    The thresholded support of a fixed-width field can be a union of
    intervals much wider than the kernel itself; a single extreme point
    under-represents such an island.  This scans the center axis, splits
    the support into connected islands, and gives each island of scanned
    length L and peak height h the seed count

        n = 1 + ceil(max(0, L - F) / (factor * w0)),
        F = 2 w0 sqrt(2 ln(h / threshold)),

    where F is the above-threshold footprint of a lone kernel of height h
    (the whole axis at threshold 0).
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
    zs = np.linspace(lo, hi, scan_nodes)
    vals = np.abs(field.smooth_at_nodes(zs.reshape(-1, 1), np.full(scan_nodes, w0)))
    thr = field.threshold
    above = vals > thr
    edges = np.flatnonzero(np.diff(np.concatenate([[0], above.astype(int), [0]])))
    peaks = []
    for a, b in edges.reshape(-1, 2):
        z_seg, v_seg = zs[a:b], vals[a:b]
        # at threshold 0 a lone kernel covers the whole axis
        footprint = 2.0 * w0 * np.sqrt(2.0 * np.log(v_seg.max() / thr)) if thr > 0 else np.inf
        excess = max(0.0, z_seg[-1] - z_seg[0] - footprint)
        n = 1 + int(np.ceil(excess / (spacing_factor * w0)))
        if n == 1:
            peaks.append((np.array([z_seg[np.argmax(v_seg)]]), w0))
            continue
        cum = np.cumsum(v_seg)
        cum = cum / cum[-1]
        centers = np.interp((np.arange(n) + 0.5) / n, cum, z_seg)
        peaks.extend((np.array([c]), w0) for c in centers)
    return peaks


def refit_amplitudes(
    peaks, samples: SampleSet, kernel: KernelSpec, ridge: float = 1e-10
) -> DiscreteModel:
    """Least-squares amplitudes for the given (center, width) pairs.

    Solves the ridge normal equations; a singular unregularized system is
    reported and retried with ridge 1e-8.
    """
    if len(peaks) == 0:
        raise ConfigError("refit needs at least one peak")
    if ridge < 0:
        raise ConfigError("ridge must be nonnegative")
    Z = np.stack([np.asarray(z, dtype=float).ravel() for z, _ in peaks])
    W = np.asarray([w for _, w in peaks], dtype=float)
    Phi = kernels.cross(kernel, samples.X, Z, W)
    G = Phi.T @ Phi
    b = Phi.T @ samples.y
    try:
        amps = np.linalg.solve(G + ridge * np.eye(len(peaks)), b)
        if not np.all(np.isfinite(amps)):
            raise np.linalg.LinAlgError("non-finite solution")
    except np.linalg.LinAlgError:
        warnings.warn("rank-deficient refit system; retrying with ridge=1e-8")
        amps = np.linalg.solve(G + 1e-8 * np.eye(len(peaks)), b)
    return DiscreteModel(amps, Z, W)


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
    Z = model.centers.copy()
    W = model.widths.copy()
    box = kernel.box
    y = samples.y
    X = samples.X
    J = model.n_terms

    def refit(Zc, Wc):
        Phi = kernels.cross(kernel, X, Zc, Wc)
        # a 1e-10 ridge keeps coincident terms solvable
        amps = np.linalg.solve(Phi.T @ Phi + 1e-10 * np.eye(J), Phi.T @ y)
        r = y - Phi @ amps
        return Phi, amps, r, float(r @ r)

    Phi, amps, resid, sse = refit(Z, W)
    step = 0.1 * float(np.min(W))
    for _ in range(steps):
        # dSSE/dz_j = -2 a_j sum_i r_i dk(x_i, z_j; w_j)/dz_j
        M = (resid[:, None] * Phi) * amps[None, :]
        gz = -2.0 * (M.T[:, :, None] * (X[None, :, :] - Z[:, None, :])).sum(axis=1)
        gz /= (W**2)[:, None]
        gw = None
        if refine_widths:
            gw = -2.0 * (M * kernels.sqdist(X, Z)).sum(axis=0) / W**3
        norm = np.sqrt(np.sum(gz**2) + (np.sum(gw**2) if gw is not None else 0.0))
        if norm == 0.0 or not np.isfinite(norm):
            break
        improved = False
        while step > 1e-12 * float(np.min(W)):
            Zp = np.clip(Z - step * gz / norm, box[:, 0], box[:, 1])
            Wp = np.clip(W - step * gw / norm, kernel.w_lo, kernel.w_hi) if gw is not None else W
            Phi_p, amps_p, resid_p, sse_p = refit(Zp, Wp)
            if sse_p < sse:
                Z, W, Phi, amps, resid, sse = Zp, Wp, Phi_p, amps_p, resid_p, sse_p
                step *= 1.5
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return DiscreteModel(amps, Z, W)


def extract_model(
    field: AlphaField, samples: SampleSet, cfg: PeakConfig | None = None
) -> DiscreteModel:
    """find_peaks + refit_amplitudes; empty model when nothing crosses."""
    peaks = find_peaks(field, cfg)
    if not peaks:
        return DiscreteModel.empty(field.kernel.dim)
    return refit_amplitudes(peaks, samples, field.kernel)
