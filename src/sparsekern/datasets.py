"""Synthetic signal generators and CSV reading and writing.

Every generator is a pure function of its parameters and seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .documents import Document
from .errors import ConfigError, DomainError
from .models import DiscreteModel


@dataclass(frozen=True, eq=False)
class SampleSet(Document):
    """Observations X (N x p), labels y (N,), and the domain box (p x 2)."""

    X: np.ndarray
    y: np.ndarray
    box: np.ndarray

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        y = np.asarray(self.y, dtype=float).ravel()
        box = np.asarray(self.box, dtype=float)
        if box.ndim == 1:
            box = box.reshape(1, 2)
        if X.shape[0] < 1:
            raise DomainError("need at least one sample")
        if X.shape[0] != y.shape[0]:
            raise DomainError("X and y disagree on the number of samples")
        if box.shape != (X.shape[1], 2):
            raise DomainError("box must be (p, 2) for p-dimensional samples")
        if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
            raise DomainError("samples and labels must be finite")
        if np.any(X < box[:, 0] - 1e-9) or np.any(X > box[:, 1] + 1e-9):
            raise DomainError("some sample lies outside the domain box")
        for name, arr in (("X", X), ("y", y), ("box", box)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]


def gen_mixed_gauss(m: int, w0: float, n: int, noise_sd: float, seed: int):
    """Random superposition of m Gaussian bumps, sampled uniformly on [0, 3].

    Amplitudes and bump centers are U(1, 2) per axis; additive Gaussian noise
    has the given standard deviation.  Returns the samples together with the
    noiseless ground-truth model.
    """
    if m < 1 or n < 1:
        raise ConfigError("m and n must be >= 1")
    if not w0 > 0:
        raise ConfigError("w0 must be positive")
    box = np.array([[0.0, 3.0]])
    p = box.shape[0]
    rng = np.random.default_rng(seed)
    amps = rng.uniform(1.0, 2.0, size=m)
    centers = rng.uniform(1.0, 2.0, size=(m, p))
    truth = DiscreteModel(amps, centers, np.full(m, float(w0)))
    X = rng.uniform(box[:, 0], box[:, 1], size=(n, p))
    y = truth.predict_batch(X)
    if noise_sd > 0:
        y = y + rng.normal(0.0, noise_sd, size=n)
    return SampleSet(X, y, box), truth


def gen_sin_squared(n: int, noise_sd: float, seed: int, grid: bool = True) -> SampleSet:
    """Varying-smoothness signal y = sin(0.5 pi x^2) on [-5, 5].

    ``grid=True`` places x on the inclusive uniform grid used for training;
    ``grid=False`` draws x uniformly at random (test sets).
    """
    if n < 1:
        raise ConfigError("n must be >= 1")
    rng = np.random.default_rng(seed)
    if grid:
        x = np.linspace(-5.0, 5.0, n)
    else:
        x = rng.uniform(-5.0, 5.0, size=n)
    y = np.sin(0.5 * np.pi * x**2)
    if noise_sd > 0:
        y = y + rng.normal(0.0, noise_sd, size=n)
    return SampleSet(x.reshape(-1, 1), y, np.array([[-5.0, 5.0]]))


def gen_remark1(n: int, seed: int) -> SampleSet:
    """Noiseless single-bump data y = exp(-(x - 2.5)^2 / 2) on [0, 5].

    Sample locations avoid the bump's peak: every x_i is at least 0.05
    away from 2.5.
    """
    if n < 2:
        raise ConfigError("n must be >= 2")
    rng = np.random.default_rng(seed)
    xs = []
    while len(xs) < n:
        draw = rng.uniform(0.0, 5.0, size=n)
        xs.extend(draw[np.abs(draw - 2.5) >= 0.05].tolist())
    x = np.asarray(xs[:n])
    y = np.exp(-((x - 2.5) ** 2) / 2.0)
    return SampleSet(x.reshape(-1, 1), y, np.array([[0.0, 5.0]]))


def save_csv(samples: SampleSet, path) -> None:
    """Write samples as ``x1,...,xp,y``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(samples.dim)] + ["y"])
        for xi, yi in zip(samples.X, samples.y):
            writer.writerow([repr(float(v)) for v in xi] + [repr(float(yi))])


def load_csv(path) -> SampleSet:
    """Read a ``x1,...,xp,y`` (or ``...,label``) CSV into a SampleSet.

    The domain box is the per-axis data range, padded slightly so boundary
    samples stay interior.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty file") from None
        ncol = len(header)
        if ncol < 2:
            raise ConfigError(f"{path}: need at least one feature and a label column")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != ncol:
                raise ConfigError(f"{path}: line {lineno}: expected {ncol} fields, got {len(row)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise ConfigError(f"{path}: line {lineno}: {exc}") from None
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=float)
    X, y = data[:, :-1], data[:, -1]
    lo = X.min(axis=0)
    hi = X.max(axis=0)
    pad = np.maximum(0.05 * (hi - lo), 1e-6)
    return SampleSet(X, y, np.stack([lo - pad, hi + pad], axis=1))
