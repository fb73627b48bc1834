"""Convex per-sample fit costs and their dual inner minimization.

Three cost kinds ship, each with a nonnegative slack epsilon so that
``c(yhat, y) <= 0`` means "this sample's fit constraint is satisfied":

    quadratic_eps  c = (yhat - y)^2 - eps
    absolute_eps   c = |yhat - y| - eps
    hinge_eps      c = max(0, 1 - y * yhat) - eps

The dual ascent needs, per sample, the minimizer of the 1-D convex
objective  mu * c(yhat, y) + lam * yhat.  When that objective is unbounded
below (mu = 0 with lam != 0, hinge or absolute with a too-large |lam|),
the minimizer is taken over the box [y - R, y + R] with R the configured
clamp radius, which keeps the dual objective finite during early ascent.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError

KINDS = ("quadratic_eps", "absolute_eps", "hinge_eps")

DEFAULT_EPSILON = {"quadratic_eps": 1e-3, "absolute_eps": 1e-3, "hinge_eps": 0.05}


@dataclass(frozen=True)
class Loss:
    kind: str
    epsilon: float
    clamp_radius: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown loss kind {self.kind!r}")
        if self.epsilon < 0:
            raise DomainError("epsilon must be nonnegative")
        if not self.clamp_radius > 0:
            raise DomainError("clamp_radius must be positive")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Loss":
        return cls(
            kind=d["kind"],
            epsilon=float(d["epsilon"]),
            clamp_radius=float(d["clamp_radius"]),
        )


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
