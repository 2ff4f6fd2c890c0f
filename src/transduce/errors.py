"""Exception types shared across the toolkit.

Argument-level misuse (bad index, negative tolerance, ...) raises plain
``ValueError``; the classes below mark failures that originate in data or
physics rather than in the call itself, so batch drivers can tell them apart.
A result that is not finite is argument-level: :func:`non_finite_error`
builds its ``ValueError``.

Two rules read every argument of the package.  ``_integer`` reads an integer
argument (an axis, a Voigt index, the QPM order, the poling sign, the pump
choice, an FD order): an int or a numpy integer is read as a plain int, a
float or a bool is not.  ``_real`` decides what a float argument may be (a
frequency, a wavelength, a power, a length, a coefficient, a table cell): an
int, a float or a numpy integer or floating scalar is read as a plain float,
a bool, a str, None or a complex is not.  ``_reals`` reads one argument, a
table or a grid through it and names the first value that is no number;
every public function reads its float arguments with it.
"""

import math
import operator
from itertools import count, repeat


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
    named = ", ".join(f"{k}={v}" for k, v in args.items())
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


def _real(value, fail=None) -> float | None:
    """``value`` as a plain float if it is a real number, else ``fail``.

    A float comes back as itself; an int, a numpy integer or floating scalar
    (any ``numbers.Real``) as ``float(value)``.  A bool (numpy's too), a str,
    None, a complex, an int too large for a float or anything else is none.
    Every float argument of the package is read through this one rule; the
    caller checks the range of the float it returns.
    """
    if type(value) is float:
        return value
    from numbers import Real        # where numpy registers its scalars; not at start-up
    try:
        return float(value) if isinstance(value, Real) and not isinstance(value, bool) else fail
    except OverflowError:           # an int too large for a float
        return fail


_ROWS, _FLOATS = (tuple, list), frozenset((float,))


def _reals(value, name: str, depth: int = 0, nulls: bool = False):
    """``value`` read by ``_real`` if ``depth`` is 0 (None as NaN if
    ``nulls``), else as a tuple of its items, each read ``depth - 1`` deep.

    A ValueError names the first item that is not a number (or, above depth
    0, not iterable) by its place in ``name``: ``power must be a number, got
    '1'`` or ``entries[1][0] must be a number, got True``.  An item is named
    by the pair (its container's name, its index), formatted only on failure.
    A float, and a tuple or list of floats read 1 deep, come back with no
    further call.
    """
    if type(value) is float and not depth:
        return value
    if depth == 0:
        if (x := math.nan if value is None and nulls else _real(value)) is None:
            raise ValueError(f"{_item_name(name)} must be a number, got {value!r}")
        return x
    if depth == 1 and type(value) in _ROWS and set(map(type, value)) <= _FLOATS:
        return tuple(value)
    try:    # map, not a generator, so no call builds a closure over the arguments
        return tuple(map(_reals, value, zip(repeat(name), count()),
                         repeat(depth - 1), repeat(nulls)))
    except TypeError:           # not iterable
        raise ValueError(f"{_item_name(name)} must be a sequence of numbers, "
                         f"got {value!r}") from None


def _item_name(name) -> str:
    """``name``, or for a pair (container name, index) ``container[index]``."""
    return name if isinstance(name, str) else f"{_item_name(name[0])}[{name[1]}]"
