"""Scalar reference implementations that tests compare the program against.

``value`` and ``grad`` evaluate one kernel and its analytic partials at one
pair of points; ``BumpField`` is a piecewise-constant coefficient field
built from a discrete model.  The package itself evaluates kernels only in
batches (``kernels.cross``, ``AlphaField.smooth_derivatives``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sparsekern import kernels
from sparsekern.dual_field import _midpoints
from sparsekern.errors import DomainError
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
