"""Exception types shared across the package, and the input rule for samples."""
import numpy as np


class InvalidParameterError(ValueError):
    """A parameter is outside its documented domain."""


class InvalidInputError(ValueError):
    """An input array has the wrong shape, dimension, or is empty."""


def as_sample(X, name: str) -> np.ndarray:
    """``X`` as a 2-D float array; raises InvalidInputError naming it if empty or non-finite."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.size == 0:
        raise InvalidInputError(f"{name} must be non-empty")
    if not np.isfinite(X).all():
        raise InvalidInputError(f"{name} contains non-finite values (NaN or inf)")
    return X


class NumericUnderflowError(ArithmeticError):
    """A sampler produced all-zero draws even after bounded retries."""


class UnsupportedKernelError(ValueError):
    """The requested kernel operation is not defined for this spec."""


class DegeneratePriorError(RuntimeError):
    """The prior Monte Carlo sample is constant or at round-off, so its quantile cells say nothing.

    Carries the raw samples so a caller can inspect the ECDFs.
    """

    def __init__(self, message, prior_samples=None, posterior_samples=None):
        super().__init__(message)
        self.prior_samples = prior_samples
        self.posterior_samples = posterior_samples


class IdxFormatError(ValueError):
    """An IDX file is malformed; ``offset`` locates the problem byte."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset
