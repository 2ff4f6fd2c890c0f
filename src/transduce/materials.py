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
missing keys by name, which is what "units validated on load" means here,
and a key repeated in one object, whose last value JSON would keep.  The
top level holds exactly ``schema`` and ``materials``, so a misspelt or
missing ``materials`` is no empty database, and ``schema`` is read by the
integer rule, so ``true`` is no schema 1.  An entry's ``dispersion``,
``photoelastic`` and ``v_sound_m_per_s`` must each be an object, checked
with ``errors._require`` (``photoelastic must be an object, got 5``).
An unknown key inside ``dispersion`` or ``photoelastic`` is rejected too,
as is the table of the other dispersion kind.
A null photoelastic entry means "unmeasured": it loads as NaN, and the
estimation chain raises DataError only if the bands need it.  Null anywhere
else is no number.  The loader checks no value itself: it picks the table
the dispersion kind names and hands each raw JSON value to the record that
stores it, ``DispersionModel``, ``PhotoelasticTensor`` or ``Material``.
That constructor reads each number once, with ``errors._reals``, under the
name the file gives it and to the shape of its table (``eps_r`` three long,
``dispersion.points`` rows four wide), and checks its range, with
``errors._real_in`` where the range is one of its four, so a string, a
boolean, a row of the wrong length, an infinite entry, an index below 1 or a
Sellmeier pole inside the window is named by its place
(``dispersion.points[1][2]``, ``eps_r[0]``) whether the record is loaded or
built directly.  A record that exists is valid.  Every error of an entry
starts with the source it was read from and names the entry's first defect.

The writer, ``dumps_materials``, hands each record's own tuples and
FrozenDict to ``json.dumps``, which writes them as lists and objects; it
copies nothing, and changes one value only: an unmeasured photoelastic
entry, NaN, is written as null.  ``MaterialDb``, ``dumps_materials``,
``save_materials`` and ``refractive_index`` name an argument of the wrong
type (``db must be a MaterialDb, got None``).
"""

from __future__ import annotations

import json
import math
import os
from bisect import bisect_right
from functools import partial
from itertools import repeat

from ._record import FrozenDict, Record
from .errors import (_AT_LEAST_ONE, _FINITE, _POSITIVE, MaterialFileError, RangeError,
                     _integer, _real_in, _reals, _require)
from .tensors import PhotoelasticTensor

SCHEMA_VERSION = 1
_N_VALIDATION_SAMPLES = 64


class DispersionModel(Record):
    """Refractive index vs. vacuum wavelength, per principal axis.

    ``kind`` is ``"tabulated-points"`` (rows of wavelength plus n for the
    three axes, strictly increasing in wavelength) or ``"sellmeier"``
    (per-axis term lists ``[B, C]`` for n^2 = 1 + sum B lam^2/(lam^2 - C),
    wavelengths and C in SI), given as three axis lists of [B, C] pairs.
    ``valid_range_m`` bounds all queries.  The model is built with the table
    its ``kind`` names and no other.  The constructor is the one reader and
    the one check of each table: it reads it with ``errors._reals`` under the
    name a database file gives it (``dispersion.points``, say) and raises
    ValueError naming the first cell, term or axis that breaks a rule, so a
    model that exists gives a real n >= 1 at every sampled wavelength.
    """

    def __init__(self, kind: str, valid_range_m: tuple[float, float],
                 points: tuple[tuple[float, float, float, float], ...] | None = None,
                 sellmeier: tuple[tuple[tuple[float, float], ...], ...] | None = None):
        lo, hi = window = _reals(valid_range_m, "dispersion.valid_range_m", (2,))
        _require(0 < lo < hi < math.inf, "dispersion.valid_range_m", "finite, 0 < lo < hi", window)
        # Only the table the kind names is read, so a missing one is named
        # by its place, and the other one must not be given.
        unread = ("sellmeier", sellmeier) if kind == "tabulated-points" else ("points", points)
        if kind == "tabulated-points":
            # Rows of [lambda_m, nx, ny, nz] from any nested sequence or
            # array; a tuple is immutable, so the columns cannot go stale.
            points = _reals(points, "dispersion.points", (None, 4))
            # _tabulated_index bisects the wavelengths (NaN is no order).
            if any(not a[0] < b[0] for a, b in zip(points, points[1:])):
                raise ValueError("dispersion.points wavelengths must be strictly "
                                 f"increasing, got {[r[0] for r in points]}")
            for i, (lam, *ns) in enumerate(points):
                _real_in(lam, f"dispersion.points[{i}][0]", _FINITE)
                for j, n in enumerate(ns, 1):
                    _real_in(n, f"dispersion.points[{i}][{j}]", _AT_LEAST_ONE)
        elif kind == "sellmeier":
            # Tuples too, so no index of this model can change after a
            # lookup (estimator._band_indices keeps three on the bands).
            sellmeier = _reals(sellmeier, "dispersion.sellmeier", (3, None, 2))
            for a, terms in enumerate(sellmeier):
                for t, (b, c) in enumerate(terms):
                    _real_in(b, f"dispersion.sellmeier[{a}][{t}][0]", _FINITE)
                    _real_in(c, f"dispersion.sellmeier[{a}][{t}][1]", _FINITE)
                    # A pole at lam^2 = C is checked exactly; sampling could
                    # miss it.  lam * lam grows with lam, so no lookup in the
                    # window divides by lam^2 - C = 0.
                    _require(not (b and lo * lo <= c <= hi * hi),
                             f"dispersion.sellmeier[{a}][{t}]",
                             "a term with no pole inside the validity range", [b, c])
        if not (kind == "tabulated-points" and points or kind == "sellmeier" and sellmeier):
            raise ValueError("dispersion.kind must be 'tabulated-points', with points, or "
                             f"'sellmeier', with sellmeier terms; got {kind!r}")
        if unread[1] is not None:
            raise ValueError(f"dispersion.{unread[0]} must not be given with kind {kind!r}")
        # _columns is the table by column (wavelengths, then n per axis), so
        # a lookup bisects the wavelength column as stored and reads two
        # cells of its axis column, with no row unpacked per call.
        self.__dict__.update(kind=kind, valid_range_m=(lo, hi), points=points,
                             sellmeier=sellmeier, _columns=tuple(map(list, zip(*points or ()))))
        if kind == "sellmeier":
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
        _require(isinstance(photoelastic_note, str), "photoelastic.note", "a string",
                 photoelastic_note)
        d_eff = _real_in(d_eff, "d_eff_m_per_v", _FINITE)
        eps_r = _reals(eps_r, "eps_r", (3,))
        for i, e in enumerate(eps_r):
            _real_in(e, f"eps_r[{i}]", _POSITIVE)
        _require(isinstance(v_sound, dict), "v_sound_m_per_s", "an object", v_sound)
        v_sound = FrozenDict((k, _real_in(v, f"v_sound_m_per_s.{k}", _POSITIVE))
                             for k, v in v_sound.items())
        damage = _real_in(damage_threshold, "damage_threshold_w_per_m2", _POSITIVE)
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
        _require(isinstance(materials, dict), "materials", "a dict", materials)
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
    if not isinstance(m, Material):     # inline: a design looks up five indices
        _require(False, "material", "a Material", m)
    return m.dispersion.index(wavelength, axis)


# --------------------------------------------------------------------------
# JSON loading / serialization
# --------------------------------------------------------------------------

_MATERIAL_KEYS = {"name", "dispersion", "photoelastic", "d_eff_m_per_v",
                  "eps_r", "v_sound_m_per_s", "damage_threshold_w_per_m2",
                  "qpm_order"}
_REQUIRED_KEYS = _MATERIAL_KEYS - {"qpm_order"}


def _known_keys(obj: dict, known: set, where: str) -> None:
    """Raise ``unknown keys [...] <where>`` if ``obj`` has a key not in ``known``."""
    if unknown := set(obj) - known:
        raise ValueError(f"unknown keys {sorted(unknown)} {where}")


def _parse_dispersion(obj) -> DispersionModel:
    """The model of ``obj``, given the raw table its kind names; the keys of
    ``obj`` are checked once the model is built, so a bad kind is named."""
    _require(isinstance(obj, dict), "dispersion", "an object", obj)
    table = "sellmeier" if (kind := obj.get("kind")) == "sellmeier" else "points"
    model = DispersionModel(kind, obj.get("valid_range_m"), **{table: obj.get(table)})
    _known_keys(obj, {"kind", "valid_range_m", table}, f"in dispersion of kind {kind!r}")
    return model


def _parse_material(obj, source: str) -> Material:
    name = obj.get("name") if isinstance(obj, dict) else None
    if not isinstance(name, str) or not name:
        raise MaterialFileError(f"{source}: material entry without a 'name'")
    # Every defect of the entry raises a ValueError, named under it; a value
    # nested to the parser's limit raises a RecursionError from its repr.
    try:
        _known_keys(obj, _MATERIAL_KEYS, "(unit annotations are part of the key names)")
        if missing := _REQUIRED_KEYS - set(obj):
            raise ValueError(f"missing required keys {sorted(missing)}")
        dispersion = _parse_dispersion(obj["dispersion"])
        _require(isinstance(pe := obj["photoelastic"], dict), "photoelastic", "an object", pe)
        _known_keys(pe, {"entries", "note"}, "in photoelastic")
        return Material(
            name=name, dispersion=dispersion, photoelastic=PhotoelasticTensor(pe.get("entries")),
            photoelastic_note=pe.get("note", ""), d_eff=obj["d_eff_m_per_v"],
            eps_r=obj["eps_r"], v_sound=obj["v_sound_m_per_s"],
            damage_threshold=obj["damage_threshold_w_per_m2"], qpm_order=obj.get("qpm_order", 1))
    except (RecursionError, ValueError) as exc:
        raise MaterialFileError(f"{source}: material '{name}': {exc}") from None


def _unique_keys(pairs, source: str, what: str = "key") -> dict:
    """The dict of ``pairs``, read once in order; a key given twice raises
    ``<source>: duplicate <what> '<key>'``, so the text of a file cannot pick
    one of two values silently.  ``json.loads`` builds each object with it."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise MaterialFileError(f"{source}: duplicate {what} '{key}'")
        obj[key] = value
    return obj


def loads_materials(text: str, source: str = "<string>") -> MaterialDb:
    """Parse and validate a schema-1 material database from JSON text.

    Text that is no JSON, nests too deeply for the parser or holds an
    integer over the interpreter's digit limit is ``<source>: not valid
    JSON: ...``; an object that repeats a key is ``<source>: duplicate key
    '<key>'``, and a second entry of one name ``<source>: duplicate material
    name '<name>'``.
    """
    try:
        doc = json.loads(text, object_pairs_hook=partial(_unique_keys, source=source))
    except (RecursionError, ValueError) as exc:     # a JSONDecodeError is a ValueError
        raise MaterialFileError(f"{source}: not valid JSON: {exc}") from exc
    # Exactly these two keys: a misspelt or missing 'materials' is no empty database.
    if (not isinstance(doc, dict) or doc.keys() != {"schema", "materials"}
            or _integer(doc["schema"]) != SCHEMA_VERSION):
        raise MaterialFileError(
            f"{source}: expected top level {{'schema': {SCHEMA_VERSION}, 'materials': [...]}}")
    entries = doc["materials"]
    if not isinstance(entries, list):
        raise MaterialFileError(f"{source}: 'materials' must be a list")
    # Each entry is parsed, then its name checked, in file order.
    named = ((m.name, m) for m in map(_parse_material, entries, repeat(source)))
    return MaterialDb(materials=_unique_keys(named, source, "material name"))


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


def _material_to_dict(m: Material) -> dict:
    """``m`` as its entry of a file, holding its own tuples and FrozenDict,
    which ``json.dumps`` writes as lists and an object; only an unmeasured
    photoelastic entry, NaN, changes, to None (null)."""
    table = "sellmeier" if (d := m.dispersion).kind == "sellmeier" else "points"
    entries = [[None if math.isnan(e) else e for e in row] for row in m.photoelastic.entries]
    return {
        "name": m.name,
        "dispersion": {"kind": d.kind, "valid_range_m": d.valid_range_m,
                       table: getattr(d, table)},
        "photoelastic": {"entries": entries, "note": m.photoelastic_note},
        "d_eff_m_per_v": m.d_eff,
        "eps_r": m.eps_r,
        "v_sound_m_per_s": m.v_sound,
        "damage_threshold_w_per_m2": m.damage_threshold,
        "qpm_order": m.qpm_order,
    }


def dumps_materials(db: MaterialDb) -> str:
    """Serialize a database to JSON; floats round-trip bit-exactly."""
    _require(isinstance(db, MaterialDb), "db", "a MaterialDb", db)
    doc = {"schema": SCHEMA_VERSION,
           "materials": [_material_to_dict(m) for _, m in sorted(db.materials.items())]}
    return json.dumps(doc, indent=2)


def save_materials(db: MaterialDb, path: str | os.PathLike) -> None:
    text = dumps_materials(db) + "\n"     # a db that is none is named before the file opens
    with open(os.fspath(path), "w", encoding="utf-8") as fh:
        fh.write(text)


def default_db() -> MaterialDb:
    """The database bundled with the package (BaTiO3 fixture plus vacuum)."""
    path = os.path.join(os.path.dirname(__file__), "data", "materials.json")
    return loads_materials(_read_text(path), source="<bundled>")
