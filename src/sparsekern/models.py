"""Finite kernel models: the low-complexity output of every estimator.

A DiscreteModel is a list of (amplitude, center, width) terms evaluated as
sum_j a_j * exp(-||x - z_j||^2 / (2 w_j^2)).  It is the canonical saved
format shared by the sparse solver's extraction step and the baselines.

It is not a ``documents.Document``: a saved model is a ``dim`` and a list of
``{"a", "z", "w"}`` terms, not three parallel arrays.  That ``terms`` layout
is the model file format, and ``sparsekern eval`` tells a model file from a
field file by it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .documents import load_json, save_json
from .errors import DomainError


@dataclass(frozen=True, eq=False)
class DiscreteModel:
    amplitudes: np.ndarray
    centers: np.ndarray
    widths: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=float).ravel()
        z = np.asarray(self.centers, dtype=float)
        if z.ndim == 1:
            z = z.reshape(-1, 1)
        w = np.asarray(self.widths, dtype=float).ravel()
        if not (a.shape[0] == z.shape[0] == w.shape[0]):
            raise DomainError("amplitudes, centers, widths must have equal length")
        if a.shape[0] and np.any(w <= 0):
            raise DomainError("widths must be positive")
        for name, arr in (("amplitudes", a), ("centers", z), ("widths", w)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def empty(cls, dim: int) -> "DiscreteModel":
        return cls(np.zeros(0), np.zeros((0, dim)), np.zeros(0))

    @property
    def n_terms(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    def predict_batch(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        d2 = kernels.sqdist(X, self.centers)
        return kernels.gaussian(d2, self.widths, out=d2) @ self.amplitudes

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "terms": [
                {"a": float(a), "z": z.tolist(), "w": float(w)}
                for a, z, w in zip(self.amplitudes, self.centers, self.widths)
            ],
        }

    @classmethod
    def from_dict(cls, d: dict, dim: int | None = None) -> "DiscreteModel":
        """Model from ``to_dict`` output; ``dim`` sizes a dimensionless empty model."""
        terms = d["terms"]
        if not terms:
            return cls.empty(d.get("dim", dim if dim is not None else 1))
        a, z, w = (np.asarray([t[key] for t in terms], dtype=float) for key in "azw")
        # JSON NaN and Infinity parse, and a term holding one makes a meaningless model
        if not (np.isfinite(a).all() and np.isfinite(z).all() and np.isfinite(w).all()):
            raise DomainError("model terms must hold finite a, z and w")
        return cls(a, z, w)

    def save(self, path) -> None:
        save_json(self.to_dict(), path)

    @classmethod
    def load(cls, path) -> "DiscreteModel":
        return cls.from_dict(load_json(path))
