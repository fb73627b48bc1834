"""Comparator fits: classical kernel ridge and backwards KOMP.

Both place kernels of a single width at the sample points.  KOMP starts
from all samples and greedily removes the kernel whose removal (followed
by a least-squares refit of the survivors) raises the training error the
least, until the stop criterion trips.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .datasets import SampleSet
from .errors import ConfigError
from .kernels import KernelSpec
from .models import DiscreteModel

@dataclass(frozen=True)
class KompConfig:
    """Stop rule plus the elimination scoring mode.

    With ``refit`` (pre-fitting), each candidate removal is scored by the
    training error after a least-squares refit of the survivors.  Without
    it, the kernel with the smallest current amplitude is dropped; the
    survivors are still refit after every removal.  On a numerically
    rank-deficient active set the amplitudes are the basic least-squares
    solution, zero on the columns outside the pivot set, so magnitude
    scoring drops those dependent columns first.
    """

    stop: str  # "error_target" | "kernel_count"
    value: float
    refit: bool = True

    def __post_init__(self):
        if self.stop not in ("error_target", "kernel_count"):
            raise ConfigError(f"unknown stop criterion {self.stop!r}")
        # refuses NaN too; an infinite target stands: the empty model meets it
        if self.stop == "error_target" and not self.value >= 0:
            raise ConfigError(f"error target must be a number >= 0, got {self.value!r}")
        if self.stop == "kernel_count" and not (1 <= self.value < np.inf and self.value == int(self.value)):
            raise ConfigError(f"kernel count must be an integer >= 1, got {self.value!r}")


def ridge_fit(samples: SampleSet, kernel: KernelSpec, w0: float, reg: float) -> DiscreteModel:
    """Kernel ridge with centers at all samples: solve (K + reg I) a = y."""
    if not reg > 0:
        raise ConfigError("reg must be positive")
    K = kernels.cross(kernel, samples.X, samples.X, w0)
    amps = np.linalg.solve(K + reg * np.eye(samples.n), samples.y)
    return DiscreteModel(amps, samples.X, np.full(samples.n, float(w0)))


def _pivoted_qr(A):
    """Householder QR with column pivoting: ``A[:, piv] = Q @ R``.

    Q is thin (m x k, k <= m) and |R[0, 0]| >= |R[1, 1]| >= ... (Businger
    and Golub; Golub & Van Loan, Matrix Computations, 5.4.1).
    """
    m, k = A.shape
    R = np.array(A, dtype=float)
    piv = np.arange(k)
    reflectors = []
    for j in range(k):
        p = j + int(np.argmax(np.sum(R[j:, j:] ** 2, axis=0)))
        R[:, [j, p]] = R[:, [p, j]]
        piv[[j, p]] = piv[[p, j]]
        v = R[j:, j].copy()
        v[0] += np.copysign(np.linalg.norm(v), v[0])
        vnorm = np.linalg.norm(v)
        if vnorm == 0.0:
            break  # the pivot is the largest trailing column: the rest is zero
        v /= vnorm
        R[j:, j:] -= 2.0 * np.outer(v, v @ R[j:, j:])
        reflectors.append(v)
    Q = np.eye(m, k)
    for j in reversed(range(len(reflectors))):
        v = reflectors[j]
        Q[j:] -= 2.0 * np.outer(v, v @ Q[j:])
    return Q, np.triu(R[:k]), piv


def _least_squares(Phi, y, active):
    """Least-squares fit of y on the columns ``Phi[:, active]``.

    Returns (amps, sse, dependent, row_norms2).  The rank r is read off the
    pivoted R with the tolerance of ``np.linalg.lstsq``; ``amps`` is the
    basic solution on the r pivot columns (zero elsewhere), ``sse`` the
    squared norm of the residual ``y - Q (Q^T y)``, ``dependent`` the
    sorted positions outside the pivot set, and ``row_norms2[i]`` the
    squared norm of the row of R^-1 that belongs to position i, which is
    the i-th diagonal entry of the inverse normal matrix when r == k.
    """
    k = len(active)
    Q, R, piv = _pivoted_qr(Phi[:, active])
    diag = np.abs(np.diag(R))
    r = int(np.sum(diag > max(Phi.shape[0], k) * np.finfo(float).eps * diag[0])) if k else 0
    Qr = Q[:, :r]
    c = Qr.T @ y
    resid = y - Qr @ c
    Rinv = np.linalg.inv(R[:r, :r])
    amps = np.zeros(k)
    amps[piv[:r]] = Rinv @ c
    row_norms2 = np.zeros(k)
    row_norms2[piv[:r]] = np.sum(Rinv**2, axis=1)
    return amps, float(resid @ resid), np.sort(piv[r:]), row_norms2


def komp_fit_with_path(
    samples: SampleSet, kernel: KernelSpec, w0: float, cfg: KompConfig
):
    """Backwards elimination; returns (model, path of (n_kernels, train MSE)).

    Every active set is fit by exact least squares through a pivoted thin
    QR of its columns, and the path error is the squared residual
    ``y - Q (Q^T y)`` over n, never formed from the normal equations.
    With ``cfg.refit`` and a full-rank active set, deleting column j
    raises the SSE by ``a_j^2 / ||row_j(R^-1)||^2`` (the regressor-deletion
    identity), so the chosen removal matches an exhaustive refit of every
    candidate.  On a numerically rank-deficient set, a column outside the
    pivot set leaves the fitted span unchanged, so the lowest-index such
    column is removed first.  Ties break toward the lowest sample index.
    """
    y = samples.y
    n = samples.n
    if cfg.stop == "kernel_count" and int(cfg.value) > n:
        raise ConfigError(f"kernel_count {int(cfg.value)} exceeds sample count {n}")
    Phi = kernels.cross(kernel, samples.X, samples.X, w0)

    active = list(range(n))
    amps, sse, dependent, row_norms2 = _least_squares(Phi, y, active)
    path = [(len(active), sse / n)]

    while active:
        if cfg.stop == "kernel_count" and len(active) <= int(cfg.value):
            break
        if not cfg.refit:
            # magnitude scoring: drop the weakest current coefficient
            pos = int(np.argmin(np.abs(amps)))
        elif len(dependent):
            pos = int(dependent[0])
        else:
            pos = int(np.argmin(amps**2 / row_norms2))
        trial = active[:pos] + active[pos + 1 :]
        fit = _least_squares(Phi, y, trial)
        if cfg.stop == "error_target" and fit[1] / n > cfg.value:
            break
        active = trial
        amps, sse, dependent, row_norms2 = fit
        path.append((len(active), sse / n))

    if not active:
        return DiscreteModel.empty(samples.dim), path
    model = DiscreteModel(amps, samples.X[active], np.full(len(active), float(w0)))
    return model, path


def komp_fit(samples: SampleSet, kernel: KernelSpec, w0: float, cfg: KompConfig) -> DiscreteModel:
    model, _ = komp_fit_with_path(samples, kernel, w0, cfg)
    return model
