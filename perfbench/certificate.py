"""Duality certificate of a fitted field, recomputed from the field alone.

The benchmark does not trust the solver's own bookkeeping (its g trace or
its multipliers mu).  From the returned field's lambda it recomputes, on a
midpoint quadrature:

    g(lambda)  = sum_i phi_i(lambda_i) + integral of min(0, gamma - abar^2 / 2)
    P(alpha)   = integral of alpha^2 / 2 + gamma * 1[alpha != 0]
    yhat_i     = integral of alpha * k(x_i, .)

where phi_i is the fit term maximised over mu in closed form.  For
quadratic_eps, c = (yhat - y)^2 - eps, the maximiser is
mu_i = |lambda_i| / (2 sqrt(eps)) and phi_i = lambda_i y_i - sqrt(eps) |lambda_i|.
Because mu is maximised out, g here is never below the solver's g at the
same lambda, and it stays defined once the solver drops mu.
"""

from __future__ import annotations

import numpy as np


def certificate(field, loss, center_nodes: int, width_nodes: int) -> dict:
    """Dual value, primal value, gap and constraint violation of ``field``."""
    from sparsekern import kernels
    from sparsekern.dual_field import Quadrature, quadrature_nodes

    if loss.kind != "quadratic_eps":
        raise ValueError(f"closed-form mu* is implemented for quadratic_eps, not {loss.kind}")
    Z, W, wts = quadrature_nodes(field.kernel, field.variant, Quadrature(center_nodes, width_nodes))
    X = field.samples.X
    y = field.samples.y
    lam = np.asarray(field.lam, dtype=float)
    gamma = float(field.gamma)

    K = kernels.cross(field.kernel, X, Z, W)
    smooth = K.T @ lam
    alpha = np.where(np.abs(smooth) > np.sqrt(2.0 * gamma), smooth, 0.0)

    g_fit = float(lam @ y - np.sqrt(loss.epsilon) * np.sum(np.abs(lam)))
    g_int = float(wts @ np.minimum(0.0, gamma - 0.5 * smooth**2))
    dual = g_fit + g_int
    primal = float(wts @ (0.5 * alpha**2 + gamma * (alpha != 0.0)))
    yhat = K @ (wts * alpha)
    max_c = float(np.max((yhat - y) ** 2 - loss.epsilon))
    return {
        "dual": dual,
        "primal": primal,
        # absolute value: the primal point alpha(lambda) may be infeasible
        "rel_gap": abs(primal - dual) / max(1.0, abs(primal)),
        "max_c": max_c,
        "max_violation": max(0.0, max_c),
    }
