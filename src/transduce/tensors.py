"""Voigt-notation tensor containers for photoelasticity.

Rank-4 photoelastic tensors are stored 6x6, as a tuple of float rows, with
symmetric index pairs packed in the standard crystallographic order (00, 11,
22, 12, 02, 01).  The constructor is the one reader and the one check of the
table: it reads it with ``errors._reals`` under the name a database file
gives it, ``photoelastic.entries``, so a bool, a string or an infinite entry
is named by its place, as is a row that is no sequence; None (null in a
file) is an unmeasured entry and is stored as NaN.  The strain columns
index tensor strain (no factor of 2 on the shear components).  Nothing here
imports numpy, so loading a material database does not.
"""

import math

from ._record import Record
from .errors import _integer, _reals

# Voigt pair for each packed index, in standard crystallographic order.
VOIGT_PAIRS: tuple[tuple[int, int], ...] = (
    (0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))

_VOIGT_OF_PAIR = {(i, j): v for v, (i, j) in enumerate(VOIGT_PAIRS)}
_VOIGT_OF_PAIR.update({(j, i): v for v, (i, j) in enumerate(VOIGT_PAIRS)})


def voigt_index(i: int, j: int) -> int:
    """Pack the symmetric axis pair (i, j) into a Voigt index 0..5."""
    v = _VOIGT_OF_PAIR.get((_integer(i), _integer(j)))
    if v is None:
        raise ValueError(f"axis indices must be in 0..2, got ({i}, {j})")
    return v


def voigt_pair(v: int) -> tuple[int, int]:
    """Unpack a Voigt index into its sorted axis pair; inverse of voigt_index."""
    if (k := _integer(v)) is None or not 0 <= k <= 5:
        raise ValueError(f"Voigt index must be in 0..5, got {v}")
    return VOIGT_PAIRS[k]


class PhotoelasticTensor(Record):
    """Dimensionless strain derivative of the relative inverse permittivity.

    ``entries[V][W]`` couples the optical index pair packed as V to the strain
    pair packed as W; both pair symmetries hold by construction of the packing.
    The entries are stored as a tuple of six row tuples of floats.
    """

    def __init__(self, entries):
        rows = _reals(entries, "photoelastic.entries", 2, True)     # None is NaN
        if len(rows) != 6 or any(len(r) != 6 for r in rows):
            raise ValueError("photoelastic.entries must be 6x6 numbers (got "
                             f"{len(rows)} rows of widths {sorted(set(map(len, rows)))})")
        for v, row in enumerate(rows):
            for w, e in enumerate(row):     # NaN, a null in a file, is unmeasured
                if math.isinf(e):
                    raise ValueError(f"photoelastic.entries[{v}][{w}] must be finite or null, "
                                     f"got {e}")
        self.__dict__.update(entries=rows)
