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
estimation chain raises DataError only if the bands need it.  Null anywhere
else is no number.  The loader checks no value itself: it picks the table
the dispersion kind names and hands each raw JSON value to the record that
stores it, ``DispersionModel``, ``PhotoelasticTensor`` or ``Material``.
That constructor reads each number once, with ``errors._reals``, under the
name the file gives it, and checks its range, so a string, a boolean, an
infinite entry, an index below 1 or a Sellmeier pole inside the window is
named by its place (``dispersion.points[1][2]``, ``eps_r[0]``) whether the
record is loaded or built directly.  A record that exists is valid.  Every
error of an entry starts with the source it was read from and names the
entry's first defect.
"""

from __future__ import annotations

import json
import math
import os
from bisect import bisect_right

from ._record import FrozenDict, Record
from .errors import MaterialFileError, RangeError, _integer, _reals
from .tensors import PhotoelasticTensor

SCHEMA_VERSION = 1
_N_VALIDATION_SAMPLES = 64


def _require(ok: bool, name: str, rule: str, value) -> None:
    """Raise ``<name> must be <rule>, got <value>`` unless ``ok``."""
    if not ok:
        raise ValueError(f"{name} must be {rule}, got {value!r}")


class DispersionModel(Record):
    """Refractive index vs. vacuum wavelength, per principal axis.

    ``kind`` is ``"tabulated-points"`` (rows of wavelength plus n for the
    three axes, strictly increasing in wavelength) or ``"sellmeier"``
    (per-axis term lists ``[B, C]`` for n^2 = 1 + sum B lam^2/(lam^2 - C),
    wavelengths and C in SI), given as three axis lists of [B, C] pairs.
    ``valid_range_m`` bounds all queries.  The model is built only with the
    table its ``kind`` names.  The constructor is the one reader and the one
    check of each table: it reads it with ``errors._reals`` under the name a
    database file gives it (``dispersion.points``, say) and raises
    ValueError naming the first cell, term or axis that breaks a rule, so a
    model that exists gives a real n >= 1 at every sampled wavelength.
    """

    def __init__(self, kind: str, valid_range_m: tuple[float, float],
                 points: tuple[tuple[float, float, float, float], ...] | None = None,
                 sellmeier: tuple[tuple[tuple[float, float], ...], ...] | None = None):
        if len(window := _reals(valid_range_m, "dispersion.valid_range_m", 1)) != 2:
            raise ValueError(f"dispersion.valid_range_m must be [lo, hi], got {window}")
        lo, hi = window
        _require(0 < lo < hi < math.inf, "dispersion.valid_range_m", "finite, 0 < lo < hi", window)
        # A table is read if it is given or its kind names it, so a missing
        # one is named by its place.
        if points is not None or kind == "tabulated-points":
            # Rows of [lambda_m, nx, ny, nz] from any nested sequence or
            # array; a tuple is immutable, so the columns cannot go stale.
            points = _reals(points, "dispersion.points", 2)
            if any(len(r) != 4 for r in points):
                raise ValueError("dispersion.points must be rows of [lambda_m, nx, ny, nz] "
                                 f"(got {len(points)} rows of widths "
                                 f"{sorted(set(map(len, points)))})")
            # _tabulated_index bisects the wavelengths (NaN is no order).
            if any(not a[0] < b[0] for a, b in zip(points, points[1:])):
                raise ValueError("dispersion.points wavelengths must be strictly "
                                 f"increasing, got {[r[0] for r in points]}")
            for i, (lam, *ns) in enumerate(points):
                _require(math.isfinite(lam), f"dispersion.points[{i}][0]", "finite", lam)
                for j, n in enumerate(ns, 1):
                    _require(1 <= n < math.inf, f"dispersion.points[{i}][{j}]",
                             "finite and >= 1", n)
        if sellmeier is not None or kind == "sellmeier":
            # Tuples too, so no index of this model can change after a
            # lookup (estimator._band_indices reuses the last three).
            sellmeier = _reals(sellmeier, "dispersion.sellmeier", 3)
            if len(sellmeier) != 3 or any(len(t) != 2 for terms in sellmeier for t in terms):
                raise ValueError("dispersion.sellmeier must be 3 axis lists of [B, C] "
                                 f"number pairs, got {sellmeier}")
            for a, terms in enumerate(sellmeier):
                for t, (b, c) in enumerate(terms):
                    _require(math.isfinite(b) and math.isfinite(c),
                             f"dispersion.sellmeier[{a}][{t}]", "finite", [b, c])
                    # A pole at lam^2 = C is checked exactly; sampling could
                    # miss it.  lam * lam grows with lam, so no lookup in the
                    # window divides by lam^2 - C = 0.
                    _require(not (b and lo * lo <= c <= hi * hi),
                             f"dispersion.sellmeier[{a}][{t}]",
                             "a term with no pole inside the validity range", [b, c])
        if not (kind == "tabulated-points" and points or kind == "sellmeier" and sellmeier):
            raise ValueError("dispersion.kind must be 'tabulated-points', with points, or "
                             f"'sellmeier', with sellmeier terms; got {kind!r}")
        # _columns is the table as Python lists (wavelengths, then n per
        # axis): a scalar lookup on lists costs far less than one np.interp.
        self.__dict__.update(kind=kind, valid_range_m=(lo, hi), points=points,
                             sellmeier=sellmeier, _columns=tuple(map(list, zip(*points or ()))))
        if sellmeier is not None:
            # n >= 1 on the grid of np.linspace(lo, hi, 64): lo + i*step, ending at hi.
            step = (hi - lo) / (_N_VALIDATION_SAMPLES - 1)
            grid = [lo + i * step for i in range(_N_VALIDATION_SAMPLES - 1)] + [hi]
            for axis in range(3):
                for lam in grid:
                    try:
                        n = self._sellmeier_index(lam, axis)
                    except RangeError:      # n^2 < 0 with no pole: n is not even real
                        n = math.nan
                    if not n >= 1.0:
                        raise ValueError(f"dispersion.sellmeier[{axis}] must give a real n >= 1 "
                                         f"over the validity range, got n = {n} at {lam!r} m")

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
        if n2 < 0:  # between the constructor's samples, with no pole: n is not real
            raise RangeError(f"Sellmeier n^2 < 0 at {wavelength:.6g} m", *self.valid_range_m,
                             wavelength)
        return math.sqrt(n2)


class Material(Record):
    """One optical material with everything the estimation chain consumes.

    The constructor reads every number with ``errors._reals`` under the key
    a database file gives it (``d_eff_m_per_v``, ``eps_r[0]``,
    ``v_sound_m_per_s.<mode>``, ``damage_threshold_w_per_m2``), checks its
    range and stores read-only copies, so a material that exists is valid.
    """

    def __init__(self, name: str, dispersion: DispersionModel,
                 photoelastic: PhotoelasticTensor, photoelastic_note: str,
                 d_eff: float,                      # m/V, sign allowed
                 eps_r: tuple[float, float, float],
                 v_sound: dict[str, float],         # acoustic mode label -> m/s
                 damage_threshold: float,           # W/m^2
                 qpm_order: int = 1):
        _require(isinstance(name, str) and name, "name", "a non-empty string", name)
        _require(isinstance(dispersion, DispersionModel), "dispersion", "a DispersionModel",
                 dispersion)
        _require(isinstance(photoelastic, PhotoelasticTensor), "photoelastic",
                 "a PhotoelasticTensor", photoelastic)
        d_eff = _reals(d_eff, "d_eff_m_per_v")
        eps_r = _reals(eps_r, "eps_r", 1)
        v_sound = FrozenDict((k, _reals(v, f"v_sound_m_per_s.{k}"))
                             for k, v in _object(v_sound, "v_sound_m_per_s").items())
        damage = _reals(damage_threshold, "damage_threshold_w_per_m2")
        _require(math.isfinite(d_eff), "d_eff_m_per_v", "finite", d_eff)
        _require(len(eps_r) == 3 and all(0 < e < math.inf for e in eps_r), "eps_r",
                 "three positive finite numbers", eps_r)
        for mode, v in v_sound.items():
            _require(0 < v < math.inf, f"v_sound_m_per_s.{mode}", "positive and finite", v)
        _require(0 < damage < math.inf, "damage_threshold_w_per_m2", "positive and finite", damage)
        _require((qpm := _integer(qpm_order)) is not None and qpm >= 1, "qpm_order",
                 "an integer >= 1", qpm_order)
        self.__dict__.update(
            name=name, dispersion=dispersion, photoelastic=photoelastic,
            photoelastic_note=photoelastic_note, d_eff=d_eff, eps_r=eps_r, v_sound=v_sound,
            damage_threshold=damage, qpm_order=qpm)


class MaterialDb(Record):
    """Immutable name -> Material map loaded from one schema-1 file; each
    value is a ``Material`` keyed by its name."""

    def __init__(self, materials: dict[str, Material]):
        self.__dict__.update(materials=FrozenDict(materials))
        for key, m in self.materials.items():
            _require(isinstance(m, Material), f"materials[{key!r}]", "a Material", m)
            _require(key == m.name, f"materials[{key!r}]", f"keyed by its name {m.name!r}", key)

    def get(self, name: str) -> Material:
        try:
            return self.materials[name]
        except (KeyError, TypeError):   # TypeError: an unhashable name
            known = ", ".join(sorted(self.materials)) or "<empty db>"
            raise MaterialFileError(
                f"material '{name}' not in database (have: {known})") from None

    def names(self) -> list[str]:
        return sorted(self.materials)


def refractive_index(m: Material, wavelength: float, axis: int = 2) -> float:
    """Refractive index of ``m`` at a vacuum wavelength (m), along ``axis``."""
    return m.dispersion.index(wavelength, axis)


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
    """The model of ``obj``, given the raw table its kind names."""
    obj = _object(obj, "dispersion")
    table = "sellmeier" if (kind := obj.get("kind")) == "sellmeier" else "points"
    return DispersionModel(kind, obj.get("valid_range_m"), **{table: obj.get(table)})


def _parse_material(obj, source: str) -> Material:
    name = obj.get("name") if isinstance(obj, dict) else None
    if not isinstance(name, str) or not name:
        raise MaterialFileError(f"{source}: material entry without a 'name'")
    try:        # every defect of the entry raises a ValueError, named under it
        if unknown := set(obj) - _MATERIAL_KEYS:
            raise ValueError(f"unknown keys {sorted(unknown)} "
                             "(unit annotations are part of the key names)")
        if missing := _REQUIRED_KEYS - set(obj):
            raise ValueError(f"missing required keys {sorted(missing)}")
        dispersion = _parse_dispersion(obj["dispersion"])
        pe = _object(obj["photoelastic"], "photoelastic")
        return Material(
            name=name, dispersion=dispersion, photoelastic=PhotoelasticTensor(pe.get("entries")),
            photoelastic_note=str(pe.get("note", "")), d_eff=obj["d_eff_m_per_v"],
            eps_r=obj["eps_r"], v_sound=obj["v_sound_m_per_s"],
            damage_threshold=obj["damage_threshold_w_per_m2"], qpm_order=obj.get("qpm_order", 1))
    except ValueError as exc:
        raise MaterialFileError(f"{source}: material '{name}': {exc}") from None


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
        m = _parse_material(obj, source)
        if m.name in mats:
            raise MaterialFileError(f"{source}: duplicate material name '{m.name}'")
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
