"""Exception types shared across the toolkit.

Argument-level misuse (bad index, negative tolerance, ...) raises plain
``ValueError``; the classes below mark failures that originate in data or
physics rather than in the call itself, so batch drivers can tell them apart.
A result that is not finite is argument-level: :func:`non_finite_error`
builds its ``ValueError``.  ``_integer`` is the package's one rule for an
integer argument (an axis, a Voigt index, the QPM order, the poling sign, the
pump choice, an FD order): an int or a numpy integer is read as a plain int,
a float or a bool is not.
"""

import math
import operator


class TransduceError(Exception):
    """Base class for data, range, and unit failures raised by this package."""


class UnitError(TransduceError):
    """A quantity composition produced the wrong physical dimension."""


class RangeError(TransduceError):
    """A wavelength or parameter fell outside a declared validity interval.

    ``lo`` and ``hi`` bound the interval and ``value`` is the offending value.
    """

    def __init__(self, message: str, lo: float | None = None, hi: float | None = None,
                 value: float | None = None):
        super().__init__(message)
        self.lo = lo
        self.hi = hi
        self.value = value


class DataError(TransduceError):
    """A required entry (tensor element, sound speed, material) is missing."""


class SingularityError(TransduceError):
    """An estimation formula is singular for the given inputs."""


class MaterialFileError(TransduceError):
    """A material database file failed to parse or validate."""


def non_finite_error(what: str, **args) -> ValueError:
    """The error for a result ``what`` that is not finite.

    It names the first argument that is not finite (a tuple counts if any
    element is not); if every argument is finite, the result overflowed.
    Callers test ``math.isfinite`` themselves and build this only on failure.
    """
    for k, v in args.items():
        if not all(map(math.isfinite, v if isinstance(v, tuple) else (v,))):
            return ValueError(f"{k} must be finite, got {v}")
    named = ", ".join(f"{k}={v!r}" for k, v in args.items())
    return ValueError(f"{what} overflows for {named}")


def _integer(value) -> int | None:
    """``value`` as a plain int if it is an int or has ``__index__`` (a numpy
    integer, say), else None: a bool, a float (even 1.0) or anything else.

    Every integer argument of the package is read through this one rule; the
    caller checks the range of the int it returns.
    """
    if type(value) is int:
        return value
    try:
        return None if isinstance(value, bool) else int(operator.index(value))
    except TypeError:
        return None
