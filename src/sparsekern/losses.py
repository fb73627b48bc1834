"""Convex per-sample fit costs and their closed-form terms in the dual.

Each cost has a nonnegative slack eps, so ``c(yhat, y) <= 0`` means the
sample's fit constraint holds.  With the fit multiplier mu maximised out,
phi(lam) = max over mu >= 0 of min over yhat of  mu c(yhat, y) + lam yhat:

    quadratic_eps  c = (yhat - y)^2 - eps        phi = lam y - sqrt(eps) |lam|
    absolute_eps   c = |yhat - y| - eps          phi = lam y - eps |lam|
    hinge_eps      c = max(0, 1 - y yhat) - eps  phi = (1 - eps) lam y on lam y >= 0

(hinge labels are +-1; phi is -inf off the half-line).  ``inner_minimize``
is the inner minimizer at a given mu, taken over [y - R, y + R] with R the
clamp radius where that objective is unbounded below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .documents import Document
from .errors import DomainError

KINDS = ("quadratic_eps", "absolute_eps", "hinge_eps")

DEFAULT_EPSILON = {"quadratic_eps": 1e-3, "absolute_eps": 1e-3, "hinge_eps": 0.05}


@dataclass(frozen=True)
class Loss(Document):
    kind: str
    epsilon: float
    clamp_radius: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown loss kind {self.kind!r}")
        if not 0 <= self.epsilon < np.inf:
            raise DomainError(f"epsilon must be finite and nonnegative, got {self.epsilon!r}")
        if not 0 < self.clamp_radius < np.inf:
            raise DomainError(f"clamp_radius must be finite and positive, got {self.clamp_radius!r}")


def default_loss(kind: str, y=None, epsilon: float | None = None) -> Loss:
    """Loss with default slack and a clamp radius of 10x the label range."""
    if epsilon is None:
        epsilon = DEFAULT_EPSILON[kind]
    radius = 10.0
    if y is not None:
        y = np.asarray(y, dtype=float)
        radius = max(10.0 * float(y.max() - y.min()), 1.0)
    return Loss(kind=kind, epsilon=epsilon, clamp_radius=radius)


def value(loss: Loss, yhat, y):
    """c(yhat, y); broadcasts over array arguments."""
    yhat = np.asarray(yhat, dtype=float)
    y = np.asarray(y, dtype=float)
    if loss.kind == "quadratic_eps":
        out = (yhat - y) ** 2 - loss.epsilon
    elif loss.kind == "absolute_eps":
        out = np.abs(yhat - y) - loss.epsilon
    else:
        out = np.maximum(0.0, 1.0 - y * yhat) - loss.epsilon
    if out.ndim == 0:
        return float(out)
    return out


def inner_minimize(loss: Loss, lam, mu, y):
    """argmin over yhat of  mu * c(yhat, y) + lam * yhat, per sample.

    Returns the exact minimizer where the objective is bounded below and
    the minimizer over [y - R, y + R] otherwise.  Scalar inputs give a
    scalar back.
    """
    lam_a, mu_a, y_a = np.broadcast_arrays(
        np.asarray(lam, dtype=float),
        np.asarray(mu, dtype=float),
        np.asarray(y, dtype=float),
    )
    scalar = lam_a.ndim == 0
    shape = lam_a.shape
    lam_a = np.atleast_1d(lam_a).astype(float).ravel()
    mu_a = np.atleast_1d(mu_a).astype(float).ravel()
    y_a = np.atleast_1d(y_a).astype(float).ravel()
    if np.any(mu_a < 0):
        raise DomainError("mu must be nonnegative")

    R = loss.clamp_radius
    lo = y_a - R
    hi = y_a + R

    if loss.kind == "quadratic_eps":
        with np.errstate(divide="ignore", invalid="ignore"):
            interior = y_a - lam_a / (2.0 * mu_a)
        yhat = np.where(
            mu_a > 0,
            interior,
            np.where(lam_a > 0, lo, np.where(lam_a < 0, hi, y_a)),
        )
    elif loss.kind == "absolute_eps":
        yhat = np.where(np.abs(lam_a) <= mu_a, y_a, np.where(lam_a > 0, lo, hi))
    else:
        # hinge: bounded iff 0 <= lam*y <= mu*y^2, minimized at the kink 1/y
        with np.errstate(divide="ignore", invalid="ignore"):
            kink = np.where(y_a != 0, 1.0 / y_a, 0.0)
        ly = lam_a * y_a
        bounded = (y_a != 0) & (ly >= 0) & (ly <= mu_a * y_a * y_a)
        cand = np.stack([lo, np.clip(kink, lo, hi), hi])
        obj = mu_a * value(loss, cand, y_a) + lam_a * cand
        best = np.take_along_axis(cand, np.argmin(obj, axis=0)[None, :], axis=0)[0]
        yhat = np.where(bounded, kink, best)

    # fully degenerate objective: any point minimizes, pin to y
    yhat = np.where((mu_a == 0) & (lam_a == 0), y_a, yhat)
    if scalar:
        return float(yhat[0])
    return yhat.reshape(shape)


def _rate(loss: Loss) -> float:
    # slope of -phi in |lam| for the two symmetric kinds
    return float(np.sqrt(loss.epsilon)) if loss.kind == "quadratic_eps" else loss.epsilon


def phi(loss: Loss, lam, y) -> float:
    """Closed-form dual fit term (mu maximised out), summed over samples."""
    lam = np.asarray(lam, dtype=float)
    if loss.kind == "hinge_eps":
        if np.any(lam * y < 0.0):
            return -np.inf
        return (1.0 - loss.epsilon) * float(np.dot(lam, y))
    return float(np.dot(lam, y) - _rate(loss) * np.abs(lam).sum())


def prox(loss: Loss, v, y, t: float) -> np.ndarray:
    """argmax over lam of  phi(lam) - (lam - v)^2 / (2 t), per sample.

    A soft threshold of v + t y by t sqrt(eps) or t eps; for hinge_eps,
    v + t (1 - eps) y projected onto the half-line lam y >= 0.
    """
    if loss.kind == "hinge_eps":
        u = v + (t * (1.0 - loss.epsilon)) * y
        return np.where(u * y >= 0.0, u, 0.0)
    u = v + t * y
    return np.sign(u) * np.maximum(np.abs(u) - t * _rate(loss), 0.0)
