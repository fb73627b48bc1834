"""The functional solution: a thresholded coefficient field over (center, width).

Given multipliers lambda, the smooth coefficient surface is the kernel
expansion  abar(z, w) = sum_i lambda_i k(x_i, z; w).  The solution field
hard-thresholds it at sqrt(2 gamma):

    alpha(z, w) = abar(z, w)   if |abar(z, w)| > sqrt(2 gamma), else 0,

and predictions integrate alpha * k over the variant's domain.  Three
problem variants share this machinery: the full search over centers and
widths, a fixed-width search over centers only, and a fixed-centers search
over widths only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .datasets import SampleSet
from .documents import Document, load_json, save_json
from .errors import ConfigError, DomainError
from .kernels import KernelSpec

VARIANT_KINDS = ("full", "fixed_width", "fixed_centers")


@dataclass(frozen=True, eq=False)
class ProblemVariant(Document):
    kind: str
    w0: float | None = None
    centers: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in VARIANT_KINDS:
            raise DomainError(f"unknown variant kind {self.kind!r}")
        # a field the kind ignores would be saved and loaded back unused
        if self.w0 is not None and self.kind != "fixed_width":
            raise DomainError(f"variant {self.kind} takes no w0")
        if self.centers is not None and self.kind != "fixed_centers":
            raise DomainError(f"variant {self.kind} takes no centers")
        if self.kind == "fixed_width":
            if self.w0 is None or not self.w0 > 0:
                raise DomainError("fixed_width requires a positive w0")
        if self.kind == "fixed_centers":
            if self.centers is None:
                raise DomainError("fixed_centers requires a center list")
            Z = np.atleast_2d(np.asarray(self.centers, dtype=float))
            if Z.shape[0] < 1:
                raise DomainError("fixed_centers requires a nonempty center list")
            Z.setflags(write=False)
            object.__setattr__(self, "centers", Z)

    @classmethod
    def full(cls) -> "ProblemVariant":
        return cls("full")

    @classmethod
    def fixed_width(cls, w0: float) -> "ProblemVariant":
        return cls("fixed_width", w0=float(w0))

    @classmethod
    def fixed_centers(cls, centers) -> "ProblemVariant":
        return cls("fixed_centers", centers=np.asarray(centers, dtype=float))

    def validate_against(self, kernel: KernelSpec) -> None:
        if self.kind == "fixed_width":
            kernels._check_width(kernel, self.w0)
        if self.kind == "fixed_centers":
            kernels._check_center(kernel, self.centers)


@dataclass(frozen=True)
class Quadrature:
    """Tensor midpoint rule: nodes per center axis and on the width axis."""

    center_nodes: int
    width_nodes: int

    def __post_init__(self):
        if self.center_nodes < 1 or self.width_nodes < 1:
            raise ConfigError("quadrature grids need at least one node per axis")


def _midpoints(lo: float, hi: float, n: int) -> tuple[np.ndarray, float]:
    h = (hi - lo) / n
    return lo + h * (np.arange(n) + 0.5), h


def quadrature_grid(kernel: KernelSpec, variant: ProblemVariant, quad: Quadrature):
    """The midpoint rule on the variant's domain as its factors (centers, widths, cell).

    Every variant's nodes are one product of centers x widths, widths
    varying fastest (``kernels.grid``).  The centers are the variant's
    list, or the box's midpoint mesh; the widths are [w0], or the width
    interval's midpoints.  Every node's weight is the one cell volume.
    """
    if variant.kind == "fixed_centers":
        centers, cell = variant.centers, 1.0
    else:
        axes = [_midpoints(lo, hi, quad.center_nodes) for lo, hi in kernel.box]
        mesh = np.meshgrid(*(pts for pts, _ in axes), indexing="ij")
        centers = np.stack([m.ravel() for m in mesh], axis=1)
        cell = math.prod(h for _, h in axes)
    if variant.kind == "fixed_width":
        widths = np.array([variant.w0], dtype=float)
    else:
        widths, hw = _midpoints(kernel.w_lo, kernel.w_hi, quad.width_nodes)
        cell *= hw
    return centers, widths, cell


def quadrature_nodes(kernel: KernelSpec, variant: ProblemVariant, quad: Quadrature):
    """The nodes (Z, W, weights) of ``quadrature_grid``, one row per node."""
    centers, widths, cell = quadrature_grid(kernel, variant, quad)
    Z = np.repeat(centers, widths.size, axis=0)
    return Z, np.tile(widths, len(centers)), np.full(len(Z), cell)


# the benchmark tracer wraps it by name; delete with the next benchmark change
def monte_carlo_nodes(kernel: KernelSpec, variant: ProblemVariant, batch: int, rng):
    """Uniform draws (Z, W, weights) whose weighted sum estimates the integral."""
    box = kernel.box
    p = kernel.dim
    wspan = kernel.w_hi - kernel.w_lo
    if variant.kind == "fixed_centers":
        M = variant.centers.shape[0]
        j = rng.integers(0, M, size=batch)
        Z = variant.centers[j]
        W = rng.uniform(kernel.w_lo, kernel.w_hi, size=batch)
        vol = M * wspan
    elif variant.kind == "full":
        Z = rng.uniform(box[:, 0], box[:, 1], size=(batch, p))
        W = rng.uniform(kernel.w_lo, kernel.w_hi, size=batch)
        vol = float(np.prod(box[:, 1] - box[:, 0])) * wspan
    else:
        Z = rng.uniform(box[:, 0], box[:, 1], size=(batch, p))
        W = np.full(batch, variant.w0)
        vol = float(np.prod(box[:, 1] - box[:, 0]))
    wts = np.full(batch, vol / batch)
    return Z, W, wts


@dataclass(frozen=True, eq=False)
class AlphaField(Document):
    """Thresholded coefficient field determined by (samples, lambda, gamma)."""

    samples: SampleSet
    lam: np.ndarray
    gamma: float
    kernel: KernelSpec
    variant: ProblemVariant

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float).ravel()
        if lam.shape[0] != self.samples.n:
            raise DomainError("lambda must have one entry per sample")
        if self.gamma < 0:
            raise DomainError("gamma must be nonnegative")
        self.variant.validate_against(self.kernel)
        if self.samples.dim != self.kernel.dim:
            raise DomainError("sample dimension disagrees with the kernel box")
        lam.setflags(write=False)
        object.__setattr__(self, "lam", lam)

    @property
    def threshold(self) -> float:
        return float(np.sqrt(2.0 * self.gamma))

    def smooth_at_nodes(self, Z, W) -> np.ndarray:
        K = kernels.cross(self.kernel, self.samples.X, Z, W)
        return K.T @ self.lam

    def coeff_at_nodes(self, Z, W) -> np.ndarray:
        s = self.smooth_at_nodes(Z, W)
        return np.where(np.abs(s) > self.threshold, s, 0.0)

    def smooth_derivatives(self, Z, W):
        """Values and first and second derivatives of the smooth surface at many (z, w) nodes.

        Returns (vals, d/dz, d/dw, the second derivatives in (z, w), sum_i
        |m_i|) with shapes (G,), (G, p), (G,), (G, p + 1, p + 1), (G,); the
        last bounds the rounding of vals by N eps sum_i |m_i| (Higham 2002,
        chapter 4).  With m_i = lambda_i k_i, d_i = x_i - z and r_i =
        ||d_i||^2:

            d2/dz dz^T = sum_i m_i d_i d_i^T / w^4 - abar I / w^2
            d2/dz dw   = sum_i m_i d_i r_i / w^5 - 2 (d/dz) / w
            d2/dw^2    = sum_i m_i r_i^2 / w^6 - 3 (d/dw) / w
        """
        X, W = self.samples.X, np.asarray(W, dtype=float)
        kernels._check_width(self.kernel, W)
        d2 = kernels.sqdist(X, Z)
        M = self.lam[:, None] * kernels.gaussian(d2, W)
        vals = M.sum(axis=0)
        W = np.broadcast_to(W, vals.shape)
        # x_i - z per axis, exact differences as in sqdist
        D = [X[:, k, None] - Z[None, :, k] for k in range(X.shape[1])]
        gz = np.stack([np.sum(M * d, axis=0) for d in D], axis=1) / (W**2)[:, None]
        Md2 = M * d2
        gw = Md2.sum(axis=0) / W**3
        p = len(D)
        hess = np.empty((vals.size, p + 1, p + 1))
        for k in range(p):
            for m in range(k + 1):
                hess[:, k, m] = hess[:, m, k] = np.sum(M * D[k] * D[m], axis=0) / W**4
            hess[:, k, k] -= vals / W**2
            hess[:, k, p] = hess[:, p, k] = np.sum(Md2 * D[k], axis=0) / W**5 - 2.0 * gz[:, k] / W
        hess[:, p, p] = np.sum(Md2 * d2, axis=0) / W**6 - 3.0 * gw / W
        return vals, gz, gw, hess, np.abs(M).sum(axis=0)

    def predict_batch(self, X, quad: Quadrature) -> np.ndarray:
        centers, widths, cell = quadrature_grid(self.kernel, self.variant, quad)
        s = self.lam @ kernels.grid(self.kernel, self.samples.X, centers, widths)
        vals = np.where(np.abs(s) > self.threshold, s, 0.0)
        return kernels.grid(self.kernel, X, centers, widths) @ (cell * vals)

    def save(self, path) -> None:
        save_json(self.to_dict(), path)

    @classmethod
    def load(cls, path) -> "AlphaField":
        return cls.from_dict(load_json(path))
