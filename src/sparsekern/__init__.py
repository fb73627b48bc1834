"""Sparse multi-kernel function estimation in sums of RKHSs.

Fits functions as integrals of a coefficient field against a parametrized
Gaussian kernel family, solving the sparse functional program exactly in
the dual domain, then extracts low-complexity discrete kernel models.
"""

from .baselines import KompConfig, komp_fit, ridge_fit
from .datasets import SampleSet, gen_mixed_gauss, gen_remark1, gen_sin_squared
from .dual_field import AlphaField, MonteCarlo, ProblemVariant, Quadrature, bump_field
from .extraction import PeakConfig, extract_model, find_peaks, refit_amplitudes
from .kernels import KernelSpec
from .losses import Loss, default_loss
from .models import DiscreteModel, predict_discrete
from .solver import DualState, Problem, SolverConfig, dual_objective, fit, supergradient

__all__ = [
    "AlphaField",
    "DiscreteModel",
    "DualState",
    "KernelSpec",
    "KompConfig",
    "Loss",
    "MonteCarlo",
    "PeakConfig",
    "Problem",
    "ProblemVariant",
    "Quadrature",
    "SampleSet",
    "SolverConfig",
    "bump_field",
    "default_loss",
    "dual_objective",
    "extract_model",
    "find_peaks",
    "fit",
    "gen_mixed_gauss",
    "gen_remark1",
    "gen_sin_squared",
    "komp_fit",
    "predict_discrete",
    "refit_amplitudes",
    "ridge_fit",
    "supergradient",
]

__version__ = "0.1.0"
