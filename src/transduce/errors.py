"""Exception types shared across the toolkit.

Argument-level misuse (bad index, negative tolerance, ...) raises plain
``ValueError``; the classes below mark failures that originate in data or
physics rather than in the call itself, so batch drivers can tell them apart.
A result out of range is argument-level, and one rule, ``_result``,
decides whether a computed result is in range: it passes a finite normal
float, and an exact 0 when a factor of it is 0; any other result (an
infinity, a NaN, a 0 or a subnormal float whose exact value is not 0) raises
the ``ValueError`` that :func:`result_error` builds, which names the inputs.

Three rules read every argument of the package.  ``_integer`` reads an
integer argument (an axis, a Voigt index, the QPM order, the poling sign,
the pump choice, an FD order): an int or a numpy integer is read as a plain
int, a float or a bool is not.  ``_real`` decides what a float argument may
be (a frequency, a wavelength, a power, a length, a coefficient, a table
cell): an int, a float or a numpy integer or floating scalar is read as a
plain float, a bool, a str, None or a complex is not.  ``_sequence`` reads
every sequence argument, of floats or of ints: it reads the items in the
order given, refuses what has no order (a set, a dict or a view of one) or
is not iterable (``<name> must be a sequence of numbers, got <value>``) and
checks the length that ``shape`` gives (``<name> must hold <n> values, got
<m>``).  ``_reals`` reads one argument, a table or a grid through it, to
the shape it is given (the length at each level, or None for any), and
names the first item that is no number by its place; every public function
reads its float arguments with it.  ``MixingBands`` reads its ``axes`` with
``_sequence`` and ``_integer`` on each item, ``fd_partial`` its ``orders``,
and the free-energy models every level of a coefficient's nesting; no other
module reads a sequence argument itself or checks its length.
``_real_in`` reads a float argument as ``_reals`` does and decides whether it
lies in its range, one of four: ``finite``, ``finite and >= 0``, ``positive
and finite`` and ``finite and >= 1``.  A float out of its range raises
``<name> must be <range>, got <float>``; no other module spells a range.
"""

import math
import operator
import sys
from collections.abc import Mapping, MappingView, Set
from itertools import count, repeat

_MIN_NORMAL = sys.float_info.min


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


def result_error(what: str, result: float, /, **args) -> ValueError:
    """The error for a ``result`` named ``what`` that is out of range.

    A finite result underflowed (it is 0 or subnormal although its exact
    value for these finite arguments is not 0): ``<what> underflows for
    name=value, ...``.  A result that is not finite names the first argument
    that is not finite (a tuple counts if any element is not), else says
    ``<what> overflows for name=value, ...``.  ``_result`` builds it for a
    result that fails the rule, and ``phasematch._sinc2`` for its
    intermediate delta_k * length.
    """
    named = ", ".join(f"{k}={v}" for k, v in args.items())
    if math.isfinite(result):
        return ValueError(f"{what} underflows for {named}")
    for k, v in args.items():
        if not all(map(math.isfinite, v if isinstance(v, tuple) else (v,))):
            return ValueError(f"{k} must be {_FINITE}, got {v}")
    return ValueError(f"{what} overflows for {named}")


def _result(what: str, value: float, zero: bool, /, **inputs) -> float:
    """``value`` if it is a finite normal float, or if it is an exact 0 and
    ``zero`` says a factor of it is 0; else raise ``result_error(what,
    value, **inputs)``.

    A site on a design's path tests ``_MIN_NORMAL <= abs(v) < math.inf``
    itself and calls this only when that test fails: a call for every
    result made the worked-point design 125 library calls instead of 111,
    and slower in process, while the inline test adds no call.
    """
    if _MIN_NORMAL <= abs(value) < math.inf or value == 0 and zero:
        return value
    raise result_error(what, value, **inputs)


# The four ranges of a float argument, by the phrase that names each: the
# lower bound and whether it is allowed; none allows an infinity or a NaN.
_FINITE, _NON_NEGATIVE, _POSITIVE, _AT_LEAST_ONE = (
    "finite", "finite and >= 0", "positive and finite", "finite and >= 1")
_LOWER = {_FINITE: (-math.inf, False), _NON_NEGATIVE: (0.0, True),
          _POSITIVE: (0.0, False), _AT_LEAST_ONE: (1.0, True)}


def _real_in(value, name: str, rule: str) -> float:
    """``value`` read as ``_reals`` reads it, if that float lies in ``rule``,
    one of the four ranges above; else raise ``<name> must be <rule>, got
    <float>``.  A float is read with no further call.

    A site on a design's path whose float is read already compares it
    inline and calls this only when the comparison fails, so a design makes
    no call for a check that passes.
    """
    x = value if type(value) is float else _reals(value, name)
    lo, closed = _LOWER[rule]
    if (lo <= x if closed else lo < x) and x < math.inf:
        return x
    raise ValueError(f"{name} must be {rule}, got {x!r}")


def _require(ok: bool, name: str, rule: str, value) -> None:
    """Raise ``<name> must be <rule>, got <value!r>`` unless ``ok``; a
    record's constructor checks each field it stores with it."""
    if not ok:
        raise ValueError(f"{name} must be {rule}, got {value!r}")


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


def _real(value) -> float | None:
    """``value`` as a plain float if it is a real number, else None.

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
        return float(value) if isinstance(value, Real) and not isinstance(value, bool) else None
    except OverflowError:           # an int too large for a float
        return None


_ROWS, _FLOATS = (tuple, list), frozenset((float,))
# An unordered container is no sequence: its order would pick each value's place.
_UNORDERED = (Set, Mapping, MappingView)


def _reals(value, name: str, shape: tuple = (), nulls: bool = False):
    """``value`` read by ``_real`` if ``shape`` is ``()`` (None as NaN if
    ``nulls``), else as a tuple of ``shape[0]`` items (any number if it is
    None), each read to ``shape[1:]``.

    A ValueError names the first item that is not a number, not a sequence
    (a set, a dict or a view of one is none: it has no order) or not of its
    length by its place in ``name``: ``power must be a number, got '1'``,
    ``entries[1][0] must be a number, got True`` or ``entries[4] must hold
    6 values, got 5``.  An item is named by the pair (its container's name,
    its index), formatted only on failure.  A float, and a tuple or list of
    floats of its length read to a shape of one level, come back with no
    further call.
    """
    if type(value) is float and not shape:
        return value
    if not shape:
        if (x := math.nan if value is None and nulls else _real(value)) is None:
            raise ValueError(f"{_item_name(name)} must be a number, got {value!r}")
        return x
    n, rest = shape[0], shape[1:]
    if (not rest and type(value) in _ROWS and set(map(type, value)) <= _FLOATS
            and (n is None or len(value) == n)):
        return tuple(value)
    return _sequence(value, name, shape, _reals, zip(repeat(name), count()), repeat(rest),
                     repeat(nulls))


def _sequence(value, name, shape: tuple, read=None, *columns) -> tuple:
    """``value`` as a tuple of ``shape[0]`` items (any number if it is None),
    in order, each read by ``read(item, ...)`` with the next argument of each
    of ``columns`` (iterables) after it, or kept as it is if ``read`` is None.

    The one reader of a sequence argument: ``_reals`` reads a level of a
    table with it, an integer site its ints with ``_integer``.  A value that
    is not iterable, or a set, a dict or a view of one (it has no order),
    raises ``<name> must be a sequence of numbers, got <value!r>``; a wrong
    count ``<name> must hold <n> values, got <m>``, once every item is read.
    """
    try:    # map, not a generator, so no call builds a closure over the arguments
        if isinstance(value, _UNORDERED):
            raise TypeError
        items = tuple(value if read is None else map(read, value, *columns))
    except TypeError:           # not iterable, or no order
        raise ValueError(f"{_item_name(name)} must be a sequence of numbers, "
                         f"got {value!r}") from None
    if (n := shape[0]) is None or len(items) == n:
        return items
    raise ValueError(f"{_item_name(name)} must hold {n} values, got {len(items)}")


def _item_name(name) -> str:
    """``name``, or for a pair (container name, index) ``container[index]``."""
    return name if isinstance(name, str) else f"{_item_name(name[0])}[{name[1]}]"
