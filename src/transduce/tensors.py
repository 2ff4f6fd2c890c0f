"""Voigt-notation tensor containers for photoelasticity.

Rank-4 photoelastic tensors are stored 6x6, as a tuple of float rows, with
symmetric index pairs packed in the standard crystallographic order (00, 11,
22, 12, 02, 01).  The strain columns index tensor strain (no factor of 2 on
the shear components).

numpy is imported only inside the function that averages arrays, so loading
a material database does not import it.
"""

from __future__ import annotations

import math
import operator
from itertools import permutations

from ._record import Record

# Voigt pair for each packed index, in standard crystallographic order.
VOIGT_PAIRS: tuple[tuple[int, int], ...] = (
    (0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))

_VOIGT_OF_PAIR = {(i, j): v for v, (i, j) in enumerate(VOIGT_PAIRS)}
_VOIGT_OF_PAIR.update({(j, i): v for v, (i, j) in enumerate(VOIGT_PAIRS)})


def _plain_int(value) -> int | None:
    """``value`` as a plain int if it is an integer (an int, or a type with
    ``__index__`` such as a numpy integer) other than a bool, else None."""
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def voigt_index(i: int, j: int) -> int:
    """Pack the symmetric axis pair (i, j) into a Voigt index 0..5."""
    if i not in (0, 1, 2) or j not in (0, 1, 2):
        raise ValueError(f"axis indices must be in 0..2, got ({i}, {j})")
    return _VOIGT_OF_PAIR[(i, j)]


def voigt_pair(v: int) -> tuple[int, int]:
    """Unpack a Voigt index into its sorted axis pair; inverse of voigt_index."""
    if v not in range(6):
        raise ValueError(f"Voigt index must be in 0..5, got {v}")
    return VOIGT_PAIRS[v]


def _float_rows(table, width: int, nrows: int | None = None
                ) -> tuple[tuple[float, ...], ...]:
    """``table`` (a nested sequence or 2-D array) as a tuple of float rows.

    Entries are read as ``np.asarray(table, dtype=float)`` reads them, with
    None as NaN.  Raises ValueError, with what was found, unless the table has
    at least one row (exactly ``nrows`` if given) of ``width`` numbers each.
    """
    try:
        rows = tuple(tuple(math.nan if v is None else float(v) for v in row)
                     for row in table)
    except (TypeError, ValueError) as exc:
        raise ValueError(str(exc)) from None
    widths = sorted({len(r) for r in rows})
    if widths != [width] or nrows not in (None, len(rows)):
        raise ValueError(f"got {len(rows)} rows of widths {widths}")
    return rows


class PhotoelasticTensor(Record):
    """Dimensionless strain derivative of the relative inverse permittivity.

    ``entries[V][W]`` couples the optical index pair packed as V to the strain
    pair packed as W; both pair symmetries hold by construction of the packing.
    The entries are stored as a tuple of six row tuples of floats.
    """

    _fields = ("entries",)

    def __init__(self, entries):
        try:
            rows = _float_rows(entries, 6, nrows=6)
        except ValueError as exc:
            raise ValueError(f"photoelastic tensor must be 6x6 numbers ({exc})") from None
        self.__dict__.update(entries=rows)


def _perm_average(a, k: int):
    """Average of the array ``a`` over every permutation of its first ``k``
    axes, summed from zero in ``itertools.permutations`` order."""
    import numpy as np
    out = np.zeros_like(a)
    for perm in permutations(range(k)):
        out += np.transpose(a, (*perm, *range(k, a.ndim)))
    return out / math.factorial(k)
