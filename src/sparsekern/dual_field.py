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
        if self.kind == "fixed_width" and not kernel.contains_width(self.w0):
            raise DomainError(f"w0={self.w0} outside the kernel width domain")
        if self.kind == "fixed_centers":
            for z in self.centers:
                if not kernel.contains_center(z):
                    raise DomainError("a candidate center lies outside the box")


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


def quadrature_nodes(kernel: KernelSpec, variant: ProblemVariant, quad: Quadrature):
    """Midpoint nodes (Z, W, weights) for the variant's integration domain."""
    box = kernel.box
    if variant.kind == "fixed_centers":
        wgrid, hw = _midpoints(kernel.w_lo, kernel.w_hi, quad.width_nodes)
        M = variant.centers.shape[0]
        Z = np.repeat(variant.centers, quad.width_nodes, axis=0)
        W = np.tile(wgrid, M)
        wts = np.full(Z.shape[0], hw)
        return Z, W, wts
    axes = []
    cell = 1.0
    for lo, hi in box:
        pts, h = _midpoints(lo, hi, quad.center_nodes)
        axes.append(pts)
        cell *= h
    if variant.kind == "full":
        wgrid, hw = _midpoints(kernel.w_lo, kernel.w_hi, quad.width_nodes)
        axes.append(wgrid)
        cell *= hw
        mesh = np.meshgrid(*axes, indexing="ij")
        flat = [m.ravel() for m in mesh]
        Z = np.stack(flat[:-1], axis=1)
        W = flat[-1]
    else:  # fixed_width
        mesh = np.meshgrid(*axes, indexing="ij")
        Z = np.stack([m.ravel() for m in mesh], axis=1)
        W = np.full(Z.shape[0], variant.w0)
    wts = np.full(Z.shape[0], cell)
    return Z, W, wts


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

    def smooth_with_grad(self, Z, W):
        """Values and gradients of the smooth surface at many (z, w) nodes.

        Returns (vals, d/dz, d/dw) with shapes (G,), (G, p), (G,).
        """
        X = self.samples.X
        K, d2 = kernels.cross(self.kernel, X, Z, W, with_sqdist=True)
        M = self.lam[:, None] * K
        vals = M.sum(axis=0)
        W = np.broadcast_to(np.asarray(W, dtype=float), vals.shape)
        # sum_i lambda_i k_i (x_i - z), from exact per-axis differences as in sqdist
        gz = [np.sum(M * (X[:, k, None] - Z[None, :, k]), axis=0) for k in range(X.shape[1])]
        gz = np.stack(gz, axis=1) / (W**2)[:, None]
        gw = (M * d2).sum(axis=0) / W**3
        return vals, gz, gw

    def predict_batch(self, X, quad: Quadrature) -> np.ndarray:
        Z, W, wts = quadrature_nodes(self.kernel, self.variant, quad)
        vals = self.coeff_at_nodes(Z, W)
        K = kernels.cross(self.kernel, X, Z, W)
        return K @ (wts * vals)

    def save(self, path) -> None:
        save_json(self.to_dict(), path)

    @classmethod
    def load(cls, path) -> "AlphaField":
        return cls.from_dict(load_json(path))
