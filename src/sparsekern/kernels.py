"""Gaussian kernel family: its parameter domain and its kernel matrices.

All estimators in this package share the parametrized family

    k(x, z; w) = exp(-||x - z||^2 / (2 w^2)),

with centers z constrained to an axis-aligned box and widths w to a closed
interval: the box of (z, w) whose corners ``KernelSpec.bounds`` gives.  Every
kernel value is ``gaussian``, the family's one formula, of ``sqdist``'s output.
Everything here is a pure function of its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .documents import Document
from .errors import DomainError


@dataclass(frozen=True, eq=False)
class KernelSpec(Document):
    """The compact domain the Gaussian family's parameters live on.

    ``box`` is a (p, 2) array of per-axis [lo, hi] bounds for the centers;
    ``w_lo``/``w_hi`` bound the widths, with ``w_lo > 0`` so the kernel is
    never singular.
    """

    w_lo: float
    w_hi: float
    box: np.ndarray

    def __post_init__(self):
        if not np.isfinite([self.w_lo, self.w_hi]).all():
            raise DomainError(f"w_lo and w_hi must be finite, got {self.w_lo!r} and {self.w_hi!r}")
        if not (self.w_lo > 0 and self.w_hi >= self.w_lo):
            raise DomainError("width domain requires 0 < w_lo <= w_hi")
        box = np.array(self.box, dtype=float, copy=True)
        if box.ndim == 1:
            box = box.reshape(1, 2)
        if box.ndim != 2 or box.shape[1] != 2:
            raise DomainError("center box must be a (p, 2) array of [lo, hi]")
        if not np.all(np.isfinite(box)):
            raise DomainError("center box entries must be finite")
        if not np.all(box[:, 1] > box[:, 0]):
            raise DomainError("center box needs positive length on every axis")
        box.setflags(write=False)
        object.__setattr__(self, "box", box)

    @property
    def dim(self) -> int:
        return self.box.shape[0]

    @property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """The lower and upper corners of the (z_1, ..., z_p, w) domain."""
        return np.append(self.box[:, 0], self.w_lo), np.append(self.box[:, 1], self.w_hi)


def _check_width(spec: KernelSpec, w) -> None:
    """Refuse any width outside [w_lo, w_hi], naming the first one."""
    w = np.asarray(w, dtype=float)
    outside = (w < spec.w_lo) | (w > spec.w_hi)
    if outside.any():
        raise DomainError(f"width {w[outside].flat[0]} outside domain [{spec.w_lo}, {spec.w_hi}]")


def _check_center(spec: KernelSpec, Z) -> None:
    """Refuse any center outside the box (or not a number), naming the first one."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    outside = ~np.all((Z >= spec.box[:, 0]) & (Z <= spec.box[:, 1]), axis=1)
    if outside.any():
        raise DomainError(f"center {Z[outside][0].tolist()} outside the box {spec.box.tolist()}")


def sqdist(X, Z) -> np.ndarray:
    """Squared distances D[i, g] = ||x_i - z_g||^2 between rows of 2-D X and Z.

    Sums exact per-axis differences, which stay accurate far from the
    origin where the expanded ||x||^2 + ||z||^2 - 2 x.z cancels.  Axes
    after the first are added in row blocks of at most 2^16 entries.
    """
    if X.shape[1] != Z.shape[1]:
        raise DomainError(f"points of dimension {X.shape[1]} and {Z.shape[1]} do not mix")
    d2 = X[:, 0, None] - Z[None, :, 0]
    np.square(d2, out=d2)
    rows = max(1, 2**16 // max(Z.shape[0], 1))  # a p >= 2 model with no terms passes an empty Z
    for k in range(1, X.shape[1]):
        for i in range(0, X.shape[0], rows):
            diff = X[i : i + rows, k, None] - Z[None, :, k]
            d2[i : i + rows] += np.square(diff, out=diff)
    return d2


def gaussian(d2, W, out=None) -> np.ndarray:
    """The kernel exp(d2 / (-2 W^2)) of squared distances d2, into ``out`` if given; W unchecked."""
    K = np.divide(d2, -2.0 * W**2, out=out)
    return np.exp(K, out=K)


def cross(spec: KernelSpec, X, Z, W) -> np.ndarray:
    """Kernel matrix K[i, g] = k(x_i, Z_g; W_g) between samples and nodes.

    ``W`` may be a scalar (one width for every node), a length-G vector,
    or a column of one width per row of X, which gives K^T bit for bit
    from ``cross(spec, Z, X, W[:, None])``.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    W = np.asarray(W, dtype=float)
    _check_width(spec, W)
    d2 = sqdist(X, Z)
    return gaussian(d2, W, out=d2)


def grid(spec: KernelSpec, X, Z, W) -> np.ndarray:
    """``cross`` on the product nodes Z x W, widths fastest, bit for bit, from one sqdist(X, Z).

    Each center's distances go through ``gaussian`` along a broadcast width
    axis.  A vector W makes the nodes K's columns; a column W makes them its
    rows: K^T = grid(spec, Z, X, W[:, None]).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    W = np.asarray(W, dtype=float)
    _check_width(spec, W)
    d2 = sqdist(X, Z)
    K = gaussian(d2[:, None, :] if W.ndim == 2 else d2[:, :, None], W)
    return K.reshape(-1, Z.shape[0]) if W.ndim == 2 else K.reshape(X.shape[0], -1)
