"""Exception types shared across the package, and the shape and input rules for samples."""
import numpy as np


class InvalidParameterError(ValueError):
    """A parameter is outside its documented domain."""


class InvalidInputError(ValueError):
    """An input array has the wrong shape, dimension, or is empty."""


def as_rows(X, name: str, width: int | None = None, *, stack: bool = False) -> np.ndarray:
    """``X`` as float rows (N, d), d >= 1 and d = ``width`` if given, a point as one row, with
    ``stack`` also (c, N, d); else InvalidInputError naming it and its shape.  Reads no value,
    copies no float array."""
    X = np.asarray(X, dtype=float)
    X = X if X.ndim >= 2 else np.atleast_2d(X)
    if X.ndim > 2 + stack or not X.shape[-1] or width is not None and X.shape[-1] != width:
        raise InvalidInputError(f"{name} must be rows (N, {'d' if width is None else width})"
                                f"{' or a stack (c, N, d)' if stack else ''}, got shape {X.shape}")
    return X


def as_sample(X, name: str) -> np.ndarray:
    """``X`` by :func:`as_rows`; raises InvalidInputError naming it if empty, a stack or non-finite."""
    X = as_rows(X, name, stack=True)
    if X.size == 0 or X.ndim != 2:
        raise InvalidInputError(f"{name} must be non-empty rows (N, d), got shape {X.shape}")
    if not np.isfinite(X).all():
        raise InvalidInputError(f"{name} contains non-finite values (NaN or inf)")
    return X


class NumericUnderflowError(ArithmeticError):
    """A sampler gave all-zero draws after bounded retries, or the truncation rule's a/j was 0."""


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
