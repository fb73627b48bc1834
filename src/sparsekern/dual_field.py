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
from .models import DiscreteModel

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

    center_nodes: int = 256
    width_nodes: int = 64

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

    def _check_query(self, z, w: float) -> np.ndarray:
        z = np.asarray(z, dtype=float).ravel()
        if z.shape[0] != self.kernel.dim:
            raise DomainError("query center has the wrong dimension")
        if not self.kernel.contains_center(z):
            raise DomainError(f"center {z} outside the domain box")
        if not self.kernel.contains_width(w):
            raise DomainError(f"width {w} outside the width domain")
        if self.variant.kind == "fixed_width" and abs(w - self.variant.w0) > 1e-9:
            raise DomainError("fixed-width field only defined at w0")
        if self.variant.kind == "fixed_centers":
            d = np.min(np.sum((self.variant.centers - z[None, :]) ** 2, axis=1))
            if d > 1e-18:
                raise DomainError("query center is not one of the candidates")
        return z

    def coeff_smooth(self, z, w: float) -> float:
        """Kernel expansion sum_i lambda_i k(x_i, z; w) before thresholding."""
        z = self._check_query(z, w)
        return float(np.dot(self.lam, kernels.value_batch(self.kernel, self.samples.X, z, w)))

    def coeff(self, z, w: float) -> float:
        """The solution field: coeff_smooth hard-thresholded at sqrt(2 gamma)."""
        v = self.coeff_smooth(z, w)
        return v if abs(v) > self.threshold else 0.0

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

    def predict(self, x, quad: Quadrature) -> float:
        """Integral of alpha * k(x, .) over the variant's domain, by the midpoint rule."""
        return float(self.predict_batch(np.asarray(x, dtype=float).reshape(1, -1), quad)[0])

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
