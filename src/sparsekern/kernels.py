"""Gaussian kernel family: evaluation, batching, and analytic derivatives.

All estimators in this package share the parametrized family

    k(x, z; w) = exp(-||x - z||^2 / (2 w^2)),

with centers z constrained to an axis-aligned box and widths w to a closed
interval.  Everything here is a pure function of its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

FAMILIES = ("gaussian",)


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """Kernel family plus the compact domain its parameters live on.

    ``box`` is a (p, 2) array of per-axis [lo, hi] bounds for the centers;
    ``w_lo``/``w_hi`` bound the widths, with ``w_lo > 0`` so the kernel is
    never singular.
    """

    w_lo: float
    w_hi: float
    box: np.ndarray
    family: str = "gaussian"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown kernel family {self.family!r}")
        if not (self.w_lo > 0 and self.w_hi >= self.w_lo):
            raise DomainError("width domain requires 0 < w_lo <= w_hi")
        box = np.array(self.box, dtype=float, copy=True)
        if box.ndim == 1:
            box = box.reshape(1, 2)
        if box.ndim != 2 or box.shape[1] != 2:
            raise DomainError("center box must be a (p, 2) array of [lo, hi]")
        if not np.all(box[:, 1] > box[:, 0]):
            raise DomainError("center box needs positive length on every axis")
        box.setflags(write=False)
        object.__setattr__(self, "box", box)

    @property
    def dim(self) -> int:
        return self.box.shape[0]

    def contains_center(self, z, tol: float = 1e-9) -> bool:
        z = np.asarray(z, dtype=float)
        return bool(
            np.all(z >= self.box[:, 0] - tol) and np.all(z <= self.box[:, 1] + tol)
        )

    def contains_width(self, w: float, tol: float = 1e-9) -> bool:
        return self.w_lo - tol <= w <= self.w_hi + tol

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "w_lo": self.w_lo,
            "w_hi": self.w_hi,
            "box": self.box.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "KernelSpec":
        return cls(
            w_lo=float(d["w_lo"]),
            w_hi=float(d["w_hi"]),
            box=np.asarray(d["box"], dtype=float),
            family=d.get("family", "gaussian"),
        )


def _check_width(spec: KernelSpec, w) -> None:
    w = np.asarray(w, dtype=float)
    if np.any(w < spec.w_lo) or np.any(w > spec.w_hi):
        raise DomainError(
            f"width {w} outside domain [{spec.w_lo}, {spec.w_hi}]"
        )


def value(spec: KernelSpec, x, z, w: float) -> float:
    """k(x, z; w) for a single pair of points."""
    _check_width(spec, w)
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    d2 = float(np.sum((x - z) ** 2))
    return float(np.exp(-d2 / (2.0 * w * w)))


def value_batch(spec: KernelSpec, X, z, w: float) -> np.ndarray:
    """k(x_i, z; w) for each row x_i of X; elementwise equal to value()."""
    _check_width(spec, w)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    z = np.asarray(z, dtype=float)
    d2 = np.sum((X - z[None, :]) ** 2, axis=1)
    return np.exp(-d2 / (2.0 * w * w))


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


def sqdist(X, Z) -> np.ndarray:
    """Squared distances D[i, g] = ||x_i - z_g||^2 between rows of 2-D X and Z.

    Sums exact per-axis differences, which stay accurate far from the
    origin where the expanded ||x||^2 + ||z||^2 - 2 x.z cancels.
    """
    if X.shape[1] != Z.shape[1]:
        raise DomainError(f"points of dimension {X.shape[1]} and {Z.shape[1]} do not mix")
    d2 = (X[:, 0, None] - Z[None, :, 0]) ** 2
    for k in range(1, X.shape[1]):
        d2 += (X[:, k, None] - Z[None, :, k]) ** 2
    return d2


def cross(spec: KernelSpec, X, Z, W, with_sqdist: bool = False):
    """Kernel matrix K[i, g] = k(x_i, Z_g; W_g) between samples and nodes.

    ``W`` may be a scalar (one width for every node) or a length-G vector.
    With ``with_sqdist`` the squared-distance matrix is returned as well,
    which gradient evaluations reuse.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    W = np.asarray(W, dtype=float)
    _check_width(spec, W)
    d2 = sqdist(X, Z)
    K = np.exp(-d2 / (2.0 * W**2))
    if with_sqdist:
        return K, d2
    return K


def gram(spec: KernelSpec, X, w: float) -> np.ndarray:
    """Symmetric Gram matrix of the samples at a single width."""
    return cross(spec, X, X, w)
