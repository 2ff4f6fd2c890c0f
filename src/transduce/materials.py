"""Material database: dispersion, photoelasticity, nonlinearity, acoustics.

Databases are JSON files (schema version 1, SI units only) holding one entry
per material.  A bundled default database ships with the package; it contains
a barium titanate entry built from point values quoted in the literature
(n at 1310 nm and 2600 nm, d_eff of 10 pm/V from SHG, photoelastic entries
measured at 633 nm, a 0.54 GW/cm^2 damage threshold) plus a vacuum entry used
for calibration tests.  The BaTiO3 dispersion is stored as the two cited
table points with a declared validity window rather than as an invented
Sellmeier fit; interpolation between points is piecewise linear and queries
between a window edge and the outermost point clamp to that point's value so
interpolated indices never leave the tabulated range.

File schema (all numbers SI):

    {"schema": 1, "materials": [
        {"name": str,
         "dispersion": {"kind": "tabulated-points" | "sellmeier",
                        "points": [[lambda_m, n_x, n_y, n_z], ...]
                        | "sellmeier": [[[B, C_m2], ...] x 3 axes],
                        "valid_range_m": [lo, hi]},
         "photoelastic": {"entries": [[... 6x6 ...]], "note": str},
         "d_eff_m_per_v": float,
         "eps_r": [e1, e2, e3],
         "v_sound_m_per_s": {"<mode>": v, ...},
         "damage_threshold_w_per_m2": float,
         "qpm_order": int (optional, default 1)}, ...]}

Unit bookkeeping lives in the key names; the loader rejects unknown or
missing keys by name, which is what "units validated on load" means here.
A null photoelastic entry means "unmeasured": it loads as NaN, and the
estimation chain raises DataError only if the bands need it.  Infinite
entries, and fields or table cells that are not JSON numbers (a string, a
boolean or an integer too large for a float, or null outside the
photoelastic table), are rejected by name, as is a ``qpm_order`` that is not
an integer (a boolean included); each is read by ``errors._reals``.  So is
each table, whole: a row that is not a list, or a table that is missing, is
named by its place, and the table goes to the record's constructor, whose
shape checks are the only ones.
"""

from __future__ import annotations

import json
import math
import os
from bisect import bisect_right

from ._record import FrozenDict, Record
from .errors import MaterialFileError, RangeError, _integer, _real, _reals
from .tensors import PhotoelasticTensor, _float_rows

SCHEMA_VERSION = 1
_N_VALIDATION_SAMPLES = 64


class DispersionModel(Record):
    """Refractive index vs. vacuum wavelength, per principal axis.

    ``kind`` is ``"tabulated-points"`` (rows of wavelength plus n for the
    three axes, strictly increasing in wavelength) or ``"sellmeier"``
    (per-axis term lists ``[B, C]`` for n^2 = 1 + sum B lam^2/(lam^2 - C),
    wavelengths and C in SI), given as three axis lists of [B, C] pairs.
    ``valid_range_m`` bounds all queries.  The model is built only with the
    table its ``kind`` names; every number is read by ``errors._reals``.
    """

    def __init__(self, kind: str, valid_range_m: tuple[float, float],
                 points: tuple[tuple[float, float, float, float], ...] | None = None,
                 sellmeier: tuple[tuple[tuple[float, float], ...], ...] | None = None):
        if len(window := _reals(valid_range_m, "valid_range_m", 1)) != 2:
            raise ValueError(f"valid_range_m must be [lo, hi], got {window}")
        lo, hi = window
        if points is not None:
            # Rows of [lambda_m, nx, ny, nz] from any nested sequence or
            # array; a tuple is immutable, so the columns cannot go stale.
            points = _float_rows(points, 4, "points", "dispersion points must be rows "
                                 "of [lambda_m, nx, ny, nz]")
        if sellmeier is not None:
            # Tuples too, so no index of this model can change after a
            # lookup (estimator._band_indices reuses the last three).
            sellmeier = _reals(sellmeier, "sellmeier", 3)
            if len(sellmeier) != 3 or any(len(t) != 2 for terms in sellmeier for t in terms):
                raise ValueError("dispersion sellmeier must be 3 axis lists of [B, C] "
                                 f"number pairs, got {sellmeier}")
        if not (kind == "tabulated-points" and points or kind == "sellmeier" and sellmeier):
            raise ValueError("dispersion kind must be 'tabulated-points', with points, or "
                             f"'sellmeier', with sellmeier terms; got {kind!r}")
        # _columns is the table as Python lists (wavelengths, then n per
        # axis): a scalar lookup on lists costs far less than one np.interp.
        self.__dict__.update(kind=kind, valid_range_m=(lo, hi), points=points,
                             sellmeier=sellmeier, _columns=tuple(map(list, zip(*points or ()))))

    def index(self, wavelength: float, axis: int) -> float:
        # A float or a bool is no axis, though 1.0 and True compare equal to 1.
        if (a := _integer(axis)) is None or not 0 <= a <= 2:
            raise ValueError(f"axis must be 0..2, got {axis}")
        lo, hi = self.valid_range_m
        if not lo <= (lam := _reals(wavelength, "wavelength")) <= hi:
            shown = f"{lam:.6g}"
            # Just past a bound, 6 digits can round onto it: show all of them.
            if shown == f"{lo if lam < lo else hi:.6g}":
                shown = repr(lam)
            raise RangeError(
                f"wavelength {shown} m outside declared validity "
                f"range [{lo:.6g}, {hi:.6g}] m", lo=lo, hi=hi, value=wavelength)
        if self.kind == "tabulated-points":
            return self._tabulated_index(lam, a)
        return self._sellmeier_index(lam, a)

    def _tabulated_index(self, wavelength: float, axis: int) -> float:
        """Piecewise-linear lookup with np.interp's arithmetic, step for step.

        Outside the table the end values are returned (the documented clamp
        inside the validity window); at a node its value is returned exactly.
        """
        lams = self._columns[0]
        ns = self._columns[1 + axis]
        j = bisect_right(lams, wavelength) - 1
        if j < 0:
            return ns[0]
        if j >= len(lams) - 1:
            return ns[-1]
        if lams[j] == wavelength:
            return ns[j]
        slope = (ns[j + 1] - ns[j]) / (lams[j + 1] - lams[j])
        return slope * (wavelength - lams[j]) + ns[j]

    def _sellmeier_index(self, wavelength: float, axis: int) -> float:
        n2 = 1.0
        lam2 = wavelength * wavelength
        for b, c in self.sellmeier[axis]:
            if b:   # a B = 0 term adds nothing, even with its C at lam^2
                n2 += b * lam2 / (lam2 - c)
        if n2 < 0:
            raise RangeError(
                f"Sellmeier n^2 negative at {wavelength:.6g} m (pole inside "
                "validity range?)", lo=self.valid_range_m[0],
                hi=self.valid_range_m[1], value=wavelength)
        return math.sqrt(n2)


class Material(Record):
    """One optical material with everything the estimation chain consumes."""

    def __init__(self, name: str, dispersion: DispersionModel,
                 photoelastic: PhotoelasticTensor, photoelastic_note: str,
                 d_eff: float,                      # m/V, sign allowed
                 eps_r: tuple[float, float, float],
                 v_sound: dict[str, float],         # acoustic mode label -> m/s
                 damage_threshold: float,           # W/m^2
                 qpm_order: int = 1):
        # Copies the caller cannot change, numbers as floats and ints;
        # validate_material reports a value that is no number (or a
        # qpm_order that is no integer), which is kept as given.
        qpm = _integer(qpm_order)
        self.__dict__.update(
            name=name, dispersion=dispersion, photoelastic=photoelastic,
            photoelastic_note=photoelastic_note, d_eff=_real(d_eff, d_eff),
            eps_r=tuple(_real(e, e) for e in eps_r),
            v_sound=FrozenDict((k, _real(v, v)) for k, v in dict(v_sound).items()),
            damage_threshold=_real(damage_threshold, damage_threshold),
            qpm_order=qpm_order if qpm is None else qpm)


class MaterialDb(Record):
    """Immutable name -> Material map loaded from one schema-1 file."""

    def __init__(self, materials: dict[str, Material]):
        self.__dict__.update(materials=FrozenDict(materials))

    def get(self, name: str) -> Material:
        try:
            return self.materials[name]
        except KeyError:
            known = ", ".join(sorted(self.materials)) or "<empty db>"
            raise MaterialFileError(
                f"material '{name}' not in database (have: {known})") from None

    def names(self) -> list[str]:
        return sorted(self.materials)


class Violation(Record):
    """Machine-readable invariant violation found by validate_material."""

    def __init__(self, field: str, rule: str, value: object):
        self.__dict__.update(field=field, rule=rule, value=value)


def refractive_index(m: Material, wavelength: float, axis: int = 2) -> float:
    """Refractive index of ``m`` at a vacuum wavelength (m), along ``axis``."""
    return m.dispersion.index(wavelength, axis)


def validate_material(m: Material) -> list[Violation]:
    """Check every material invariant; violations are data, not exceptions."""
    out: list[Violation] = []
    d = m.dispersion
    lo, hi = d.valid_range_m
    if not (math.isfinite(lo) and math.isfinite(hi) and 0 < lo < hi):
        out.append(Violation("dispersion.valid_range_m", "0 < lo < hi", (lo, hi)))
        return out
    if d.kind == "tabulated-points":
        lams = [row[0] for row in d.points]
        if any(b - a <= 0 for a, b in zip(lams, lams[1:])):
            out.append(Violation("dispersion.points", "wavelengths strictly increasing",
                                 lams))
        below = [n for row in d.points for n in row[1:] if n < 1.0]
        if below:
            out.append(Violation("dispersion.points", "n >= 1", min(below)))
        if not all(math.isfinite(v) for row in d.points for v in row):
            out.append(Violation("dispersion.points", "finite", None))
    else:
        # The scan grid of np.linspace(lo, hi, 64): lo + i*step, ending at hi.
        step = (hi - lo) / (_N_VALIDATION_SAMPLES - 1)
        grid = [lo + i * step for i in range(_N_VALIDATION_SAMPLES - 1)] + [hi]
        for axis in range(3):
            if not all(math.isfinite(v) for term in d.sellmeier[axis] for v in term):
                out.append(Violation("dispersion.sellmeier", "finite B and C", axis))
                continue
            # A pole at lam^2 = C is checked exactly; sampling could miss it.
            if any(b != 0 and lo * lo <= c <= hi * hi for b, c in d.sellmeier[axis]):
                out.append(Violation("dispersion.sellmeier", "pole inside validity range", axis))
                continue
            try:    # the grid lies in the window: no lookup needs index's checks
                nmin = min(d._sellmeier_index(lam, axis) for lam in grid)
            except RangeError:   # n^2 < 0 with no pole: n is not even real
                nmin = None
            if nmin is None or nmin < 1.0:
                out.append(Violation("dispersion.sellmeier", "n >= 1 over validity range",
                                     nmin))
    # NaN (null in a file) marks an unmeasured entry; only infinities are bad.
    if any(math.isinf(e) for row in m.photoelastic.entries for e in row):
        out.append(Violation("photoelastic.entries", "finite or null 6x6", None))
    # A Material stores every number as a float; anything else is kept as
    # given, reads as NaN here and is reported.
    if not math.isfinite(_real(m.d_eff, math.nan)):
        out.append(Violation("d_eff_m_per_v", "finite", m.d_eff))
    if len(m.eps_r) != 3 or not all(0 < _real(e, math.nan) < math.inf for e in m.eps_r):
        out.append(Violation("eps_r", "three positive finite entries", m.eps_r))
    for mode, v in m.v_sound.items():
        if not 0 < _real(v, math.nan) < math.inf:
            out.append(Violation(f"v_sound_m_per_s.{mode}", "positive finite", v))
    if not 0 < _real(m.damage_threshold, math.nan) < math.inf:
        out.append(Violation("damage_threshold_w_per_m2", "positive", m.damage_threshold))
    if (qpm := _integer(m.qpm_order)) is None or qpm < 1:
        out.append(Violation("qpm_order", "integer >= 1", m.qpm_order))
    return out


# --------------------------------------------------------------------------
# JSON loading / serialization
# --------------------------------------------------------------------------

_MATERIAL_KEYS = {"name", "dispersion", "photoelastic", "d_eff_m_per_v",
                  "eps_r", "v_sound_m_per_s", "damage_threshold_w_per_m2",
                  "qpm_order"}
_REQUIRED_KEYS = _MATERIAL_KEYS - {"qpm_order"}


def _object(value, field: str) -> dict:
    """``value`` if it is a JSON object; ValueError naming ``field``."""
    if not isinstance(value, dict):
        raise ValueError(f"{field} must be an object, got {value!r}")
    return value


def _parse_dispersion(obj) -> DispersionModel:
    """The model of ``obj``: its window and the table its kind names are read
    by ``errors._reals``, which names a cell or a row by its index, and then
    checked by the constructor alone."""
    obj = _object(obj, "dispersion")
    kind = obj.get("kind")
    valid = _reals(obj.get("valid_range_m"), "dispersion.valid_range_m", 1)
    if kind == "tabulated-points":
        points = _reals(obj.get("points"), "dispersion.points", 2, True)
        return DispersionModel(kind, valid, points=points)
    if kind == "sellmeier":
        axes = _reals(obj.get("sellmeier"), "dispersion.sellmeier", 3)
        return DispersionModel(kind, valid, sellmeier=axes)
    raise ValueError(f"dispersion.kind must be 'tabulated-points' or 'sellmeier', got {kind!r}")


def _parse_material(obj) -> Material:
    name = obj.get("name") if isinstance(obj, dict) else None
    if not isinstance(name, str) or not name:
        raise MaterialFileError("material entry without a 'name'")
    try:        # every defect of the entry raises a ValueError, named under it
        if unknown := set(obj) - _MATERIAL_KEYS:
            raise ValueError(f"unknown keys {sorted(unknown)} "
                             "(unit annotations are part of the key names)")
        if missing := _REQUIRED_KEYS - set(obj):
            raise ValueError(f"missing required keys {sorted(missing)}")

        dispersion = _parse_dispersion(obj["dispersion"])
        pe = _object(obj["photoelastic"], "photoelastic")
        # null entries mark unmeasured tensor elements; they surface as NaN and
        # raise a DataError only if the estimation chain actually needs them.
        entries = _reals(pe.get("entries"), "photoelastic.entries", 2, True)
        photoelastic = PhotoelasticTensor(entries)
        if not (isinstance(eps_r := obj["eps_r"], list) and len(eps_r) == 3):
            raise ValueError("eps_r must be a 3-vector diagonal")
        if _integer(qpm := obj.get("qpm_order", 1)) is None:
            raise ValueError(f"qpm_order must be an integer, got {qpm!r}")
        v_sound = _object(obj["v_sound_m_per_s"], "v_sound_m_per_s")
        return Material(
            name=name, dispersion=dispersion, photoelastic=photoelastic,
            photoelastic_note=str(pe.get("note", "")),
            d_eff=_reals(obj["d_eff_m_per_v"], "d_eff_m_per_v"),
            eps_r=_reals(eps_r, "eps_r", 1),
            v_sound={str(k): _reals(v, f"v_sound_m_per_s.{k}") for k, v in v_sound.items()},
            damage_threshold=_reals(obj["damage_threshold_w_per_m2"], "damage_threshold_w_per_m2"),
            qpm_order=qpm)
    except ValueError as exc:
        raise MaterialFileError(f"material '{name}': {exc}") from None


def loads_materials(text: str, source: str = "<string>") -> MaterialDb:
    """Parse and validate a schema-1 material database from JSON text."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MaterialFileError(f"{source}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA_VERSION:
        raise MaterialFileError(
            f"{source}: expected top level {{'schema': {SCHEMA_VERSION}, 'materials': [...]}}")
    entries = doc.get("materials", [])
    if not isinstance(entries, list):
        raise MaterialFileError(f"{source}: 'materials' must be a list")
    mats: dict[str, Material] = {}
    for obj in entries:
        m = _parse_material(obj)
        if m.name in mats:
            raise MaterialFileError(f"{source}: duplicate material name '{m.name}'")
        violations = validate_material(m)
        if violations:
            v = violations[0]
            raise MaterialFileError(
                f"{source}: material '{m.name}' invalid: {v.field} violates "
                f"'{v.rule}' (value {v.value!r})"
                + (f" and {len(violations) - 1} more" if len(violations) > 1 else ""))
        mats[m.name] = m
    return MaterialDb(materials=mats)


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def load_materials(path: str | os.PathLike) -> MaterialDb:
    """Load a material database file; raises MaterialFileError on any defect.

    Messages name ``path`` as given (``os.fspath``), not normalized.
    """
    p = os.fspath(path)
    if not os.path.exists(p):
        raise MaterialFileError(f"material database not found: {p}")
    try:
        text = _read_text(p)
    except (OSError, UnicodeDecodeError) as exc:
        raise MaterialFileError(f"{p}: cannot read material database: {exc}") from None
    return loads_materials(text, source=p)


def _dispersion_to_dict(d: DispersionModel) -> dict:
    out: dict[str, object] = {"kind": d.kind, "valid_range_m": list(d.valid_range_m)}
    if d.kind == "tabulated-points":
        out["points"] = [list(row) for row in d.points]
    else:
        out["sellmeier"] = [[[b, c] for b, c in axis] for axis in d.sellmeier]
    return out


def _material_to_dict(m: Material) -> dict:
    entries = [[None if math.isnan(e) else e for e in row] for row in m.photoelastic.entries]
    return {
        "name": m.name,
        "dispersion": _dispersion_to_dict(m.dispersion),
        "photoelastic": {"entries": entries, "note": m.photoelastic_note},
        "d_eff_m_per_v": m.d_eff,
        "eps_r": list(m.eps_r),
        "v_sound_m_per_s": dict(m.v_sound),
        "damage_threshold_w_per_m2": m.damage_threshold,
        "qpm_order": m.qpm_order,
    }


def dumps_materials(db: MaterialDb) -> str:
    """Serialize a database to JSON; floats round-trip bit-exactly."""
    doc = {"schema": SCHEMA_VERSION,
           "materials": [_material_to_dict(m) for _, m in sorted(db.materials.items())]}
    return json.dumps(doc, indent=2)


def save_materials(db: MaterialDb, path: str | os.PathLike) -> None:
    with open(os.fspath(path), "w", encoding="utf-8") as fh:
        fh.write(dumps_materials(db) + "\n")


def default_db() -> MaterialDb:
    """The database bundled with the package (BaTiO3 fixture plus vacuum)."""
    path = os.path.join(os.path.dirname(__file__), "data", "materials.json")
    return loads_materials(_read_text(path), source="<bundled>")
