"""Voigt-notation tensor containers for photoelasticity.

Rank-4 photoelastic tensors are stored 6x6, as a tuple of float rows, and
rank-5 second-order photoelastic tensors 6x3x6, as an ndarray, with symmetric
index pairs packed in the standard crystallographic order (00, 11, 22, 12,
02, 01).  Strain is packed as tensor strain (no factor of 2 on the shear
components): the contractions here are written in full tensor indices, so the
packed product must not double-count shear.  Loaders that ingest
engineering-strain data are responsible for converting before constructing
:class:`StrainVoigt`.

numpy is imported only inside the functions that build or contract arrays,
so loading a material database does not import it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import permutations
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# Voigt pair for each packed index, in standard crystallographic order.
VOIGT_PAIRS: tuple[tuple[int, int], ...] = (
    (0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))

_VOIGT_OF_PAIR = {(i, j): v for v, (i, j) in enumerate(VOIGT_PAIRS)}
_VOIGT_OF_PAIR.update({(j, i): v for v, (i, j) in enumerate(VOIGT_PAIRS)})

STRAIN_WARN_THRESHOLD = 1e-2


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


def _require_finite(arr: np.ndarray, name: str) -> None:
    import numpy as np
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite entries")


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


@dataclass(frozen=True)
class PhotoelasticTensor:
    """Dimensionless strain derivative of the relative inverse permittivity.

    ``entries[V][W]`` couples the optical index pair packed as V to the strain
    pair packed as W; both pair symmetries hold by construction of the packing.
    The entries are stored as a tuple of six row tuples of floats.
    """

    entries: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        try:
            rows = _float_rows(self.entries, 6, nrows=6)
        except ValueError as exc:
            raise ValueError(f"photoelastic tensor must be 6x6 numbers ({exc})") from None
        object.__setattr__(self, "entries", rows)

    def require_finite(self) -> None:
        if not all(math.isfinite(e) for row in self.entries for e in row):
            raise ValueError("photoelastic tensor must contain only finite entries")


@dataclass(frozen=True)
class SecondOrderPhotoelastic:
    """Strain derivative of the second-order inverse susceptibility, in m^2/C.

    ``entries[V][j][W]``: V packs the optical pair (h, i), j is the remaining
    displacement-field axis, W packs the strain pair (k, l).
    """

    entries: np.ndarray

    def __post_init__(self):
        import numpy as np
        arr = np.asarray(self.entries, dtype=float)
        if arr.shape != (6, 3, 6):
            raise ValueError(f"second-order tensor must be 6x3x6, got {arr.shape}")
        object.__setattr__(self, "entries", arr)

    def require_finite(self) -> None:
        _require_finite(self.entries, "second-order photoelastic tensor")


@dataclass(frozen=True)
class StrainVoigt:
    """Tensor-strain 6-vector; warns when any component exceeds 1e-2."""

    entries: np.ndarray

    def __post_init__(self):
        import numpy as np
        arr = np.asarray(self.entries, dtype=float)
        if arr.shape != (6,):
            raise ValueError(f"strain vector must have 6 components, got {arr.shape}")
        _require_finite(arr, "strain")
        if np.max(np.abs(arr)) > STRAIN_WARN_THRESHOLD:
            warnings.warn(
                f"strain magnitude {np.max(np.abs(arr)):.3g} exceeds "
                f"{STRAIN_WARN_THRESHOLD:g}; linearized photoelasticity assumes "
                "small strain", stacklevel=2)
        object.__setattr__(self, "entries", arr)


def contract_photoelastic(p: PhotoelasticTensor, x: StrainVoigt) -> np.ndarray:
    """Strain-induced change of the relative inverse permittivity.

    Returns the 6-vector ``delta[V] = sum_W p[V][W] * x[W]``, exactly linear
    in the strain.
    """
    import numpy as np
    p.require_finite()
    return np.array(p.entries) @ x.entries


@dataclass(frozen=True)
class SymmetryReport:
    """Result of a Kleinman-style index-interchange consistency check."""

    max_asymmetry: float
    flagged: tuple[tuple[tuple[int, int, int], int], ...]
    tol: float

    @property
    def passed(self) -> bool:
        return not self.flagged


def _perm_average(a: np.ndarray, k: int) -> np.ndarray:
    """Average of ``a`` over every permutation of its first ``k`` axes,
    summed from zero in ``itertools.permutations`` order."""
    import numpy as np
    out = np.zeros_like(a)
    for perm in permutations(range(k)):
        out += np.transpose(a, (*perm, *range(k, a.ndim)))
    return out / math.factorial(k)


def _unpack(t: SecondOrderPhotoelastic) -> np.ndarray:
    """The packed 6x3x6 tensor as full[h, i, j, W], symmetric in (h, i)."""
    import numpy as np
    full = np.empty((3, 3, 3, 6))
    for v, (h, i) in enumerate(VOIGT_PAIRS):
        for j in range(3):
            full[h, i, j, :] = t.entries[v, j, :]
            full[i, h, j, :] = t.entries[v, j, :]
    return full


def check_pair_symmetry(t: SecondOrderPhotoelastic, tol: float) -> SymmetryReport:
    """Report how far ``t`` is from full interchange symmetry of its three
    displacement-field axes.

    The packed storage fixes the (h, i) pair symmetry; a lossless medium with
    frequency-independent nonlinearity would additionally be symmetric under
    every permutation of (h, i, j).  That extra symmetry is assumed by the
    Miller's-rule estimation chain but is not enforced on construction, so
    this checker measures the worst relative spread within each permutation
    orbit and flags orbits exceeding ``tol``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    t.require_finite()
    full = _unpack(t)
    max_asym = 0.0
    flagged: list[tuple[tuple[int, int, int], int]] = []
    seen: set[tuple[tuple[int, int, int], int]] = set()
    for h in range(3):
        for i in range(3):
            for j in range(3):
                key = tuple(sorted((h, i, j)))
                for w in range(6):
                    if (key, w) in seen:
                        continue
                    seen.add((key, w))
                    vals = [float(full[a, b, c, w])
                            for a, b, c in set(permutations((h, i, j)))]
                    scale = max(abs(v) for v in vals)
                    if scale == 0.0:
                        continue
                    spread = (max(vals) - min(vals)) / scale
                    max_asym = max(max_asym, spread)
                    if spread > tol:
                        flagged.append((key, w))
    return SymmetryReport(max_asymmetry=max_asym, flagged=tuple(flagged), tol=tol)


def symmetrize(t: SecondOrderPhotoelastic) -> SecondOrderPhotoelastic:
    """Average each (h, i, j) permutation orbit, yielding a tensor that
    passes :func:`check_pair_symmetry` at machine precision."""
    import numpy as np
    sym = _perm_average(_unpack(t), 3)
    packed = np.empty((6, 3, 6))
    for v, (h, i) in enumerate(VOIGT_PAIRS):
        packed[v, :, :] = sym[h, i, :, :]
    return SecondOrderPhotoelastic(packed)
