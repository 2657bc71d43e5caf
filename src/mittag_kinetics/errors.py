"""Exception and warning types shared across the package, and the
finiteness and count rules of its frozen records."""

import math
import operator
from enum import Enum

import numpy as np


class MittagKineticsError(Exception):
    """Base class for all package errors."""


class DomainError(MittagKineticsError):
    """Input lies outside the domain an operation is willing to evaluate."""


class NonConvergence(MittagKineticsError):
    """A series did not meet its termination criterion within the term budget."""


class PoleError(MittagKineticsError):
    """Evaluation point coincides (within tolerance) with a pole."""


class QuadratureFailure(MittagKineticsError):
    """Numerical integration could not reach the requested tolerance."""


class InversionFailure(MittagKineticsError):
    """Numerical Laplace inversion failed its node-doubling self-check."""


class StabilityError(MittagKineticsError):
    """A time step violates the explicit scheme's stability constraint."""


class SpecError(MittagKineticsError):
    """A problem-spec file is malformed or violates a type invariant."""


class InstabilityWarning(UserWarning):
    """A retained spatial mode has a negative stiffness and will grow in time."""


def refuse_non_finite(record) -> None:
    """Raise DomainError when a field of the frozen record ``record`` is a
    NaN or infinite number or holds one: a tuple of numbers or of pairs,
    or an ndarray.  None, enum and integer fields pass."""
    for name, value in vars(record).items():
        if isinstance(value, float):  # first: the only kind hot records hold
            finite = math.isfinite(value)
        elif isinstance(value, (tuple, np.ndarray)):
            finite = np.isfinite(np.asarray(value, dtype=float)).all()
        else:
            finite = value is None or isinstance(value, (Enum, int)) or math.isfinite(value)
        if not finite:
            raise DomainError(f"{type(record).__name__} {name} must be finite, got {value}")


def refuse_non_count(value, what: str, least: int) -> None:
    """Raise DomainError unless ``value`` is an integer of at least ``least``:
    any integral type passes (``operator.index``), a bool or float does not."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__") or operator.index(value) < least:
        raise DomainError(f"{what} must be an integer >= {least}, got {value!r}")
