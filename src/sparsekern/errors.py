"""Exception types shared across the package."""


class DomainError(ValueError):
    """A query or parameter lies outside the domain it was declared on."""


class ConfigError(ValueError):
    """A configuration value or file is invalid or inconsistent."""


class DivergenceError(RuntimeError):
    """The dual ascent produced a non-finite iterate or certificate."""

    def __init__(self, iteration: int, lam_norm: float):
        self.iteration = iteration
        self.lam_norm = lam_norm
        super().__init__(
            f"non-finite dual value at iteration {iteration} (|lambda|={lam_norm:.6g}); "
            "check the label scale and that the fit constraints can be met"
        )
