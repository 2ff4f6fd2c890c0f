"""Voigt-notation tensor containers for photoelasticity.

Rank-4 photoelastic tensors are stored 6x6, as a tuple of float rows, with
symmetric index pairs packed in the standard crystallographic order (00, 11,
22, 12, 02, 01).  The constructor is the one reader and the one check of the
table: it reads it with ``errors._reals`` under the name a database file
gives it, ``photoelastic.entries``, to the shape 6x6, so a bool, a string or
an infinite entry is named by its place, as is a row that is no sequence or
not six long (``photoelastic.entries[4] must hold 6 values, got 5``); None
(null in a file) is an unmeasured entry and is stored as NaN.  The strain
columns index tensor strain (no factor of 2 on the shear components).  Nothing here
imports numpy, so loading a material database does not.
"""

import math

from ._record import Record
from .errors import _reals

# Voigt pair for each packed index, in standard crystallographic order.
VOIGT_PAIRS: tuple[tuple[int, int], ...] = (
    (0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))


class PhotoelasticTensor(Record):
    """Dimensionless strain derivative of the relative inverse permittivity.

    ``entries[V][W]`` couples the optical index pair packed as V to the strain
    pair packed as W; both pair symmetries hold by construction of the packing.
    The entries are stored as a tuple of six row tuples of floats.
    """

    def __init__(self, entries):
        rows = _reals(entries, "photoelastic.entries", (6, 6), True)    # None is NaN
        for v, row in enumerate(rows):
            for w, e in enumerate(row):     # NaN, a null in a file, is unmeasured
                if math.isinf(e):
                    raise ValueError(f"photoelastic.entries[{v}][{w}] must be finite or null, "
                                     f"got {e}")
        self.__dict__.update(entries=rows)
