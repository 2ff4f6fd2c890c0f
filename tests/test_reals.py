"""Every float argument of the package follows one rule.

A float, an int or a numpy integer or floating scalar is accepted and is
stored or used as a plain float; a bool, a string, None and an int too large
for a float are rejected, as is a float out of range, each with a message
that names the argument.  One row per site, eight inputs per row: a valid
float, its np.float64 (whose result prints as the float's does), an int, True,
"1.0", None, 10**400 and a float out of range.  A value that is no number is
named as ``<name> must be a number, got <value>``; an out-of-range float gets
the message the site raises.  A material record names a field or a cell by
its place in a database file (``d_eff_m_per_v``, ``dispersion.points[0][1]``),
whether it is loaded or built directly, and a null photoelastic cell reads as
NaN ("unmeasured"), as in a database file.  A seeded set of designs then
gives the same bits for numpy-scalar inputs as for floats.
"""

import json
import math
import random
from typing import Callable, NamedTuple

import numpy as np
import pytest

from transduce import (CouplingBenchmark, MixingBands, PhaseMatchInput, PumpGeometry,
                       default_db)
from transduce import estimator as E, phasematch as P, thermo as TH
from transduce.errors import MaterialFileError, RangeError, _real
from transduce.materials import DispersionModel, dumps_materials, loads_materials
from transduce.tensors import PhotoelasticTensor

DB = default_db()
BTO = DB.get("BaTiO3")
BANDS = MixingBands.from_vacuum_wavelengths(2600e-9, 2600e-9, 2e9)
PM = PhaseMatchInput(BANDS, BTO, 100e-6, poling_period=2.5e-6, poling_sign=-1)
ENTRY = next(m for m in json.loads(dumps_materials(DB))["materials"]
             if m["name"] == "BaTiO3")
WINDOW = (1.0e-6, 3.0e-6)
POINTS = [[1.0e-6, 2.0, 2.0, 2.0], [3.0e-6, 2.0, 2.0, 2.0]]
SCALAR = TH.FreeEnergyModel(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
VECTOR = TH.VectorFreeEnergyModel(1.0, [1.0, 2.0], [1.0, 0.5, 0.5, 2.0], [0.1] * 8,
                                  [0.2, 0.3, 0.3, 0.4], [0.5] * 8)
P_LIMIT = 10.0 * E.damage_limited_power(BTO, 1.2e-6)


def _load(path, v):
    """The bundled BaTiO3 entry with ``v`` written at ``path``, loaded."""
    entry = json.loads(json.dumps(ENTRY))
    target = entry
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = v
    return loads_materials(json.dumps({"schema": 1, "materials": [entry]})).get("BaTiO3")


def _in_file(message):
    return f"<string>: material 'BaTiO3': {message}"


class Site(NamedTuple):
    call: Callable           # the argument -> what the site stores or returns
    name: str                # how a value that is no number is named
    valid: float
    integral: int            # an int, read as the float it equals
    out_of_range: float
    message: Callable        # the out-of-range float -> the site's message
    value: Callable = lambda r: r          # the result -> the float it holds
    error: type = ValueError               # raised for the out-of-range float
    rejected: Callable | None = None       # a non-number -> its message, unless
    #                                        it is "<name> must be a number, got <v>"


def _kept(call, valid, integral, out_of_range, message, value):
    """A site that reports a value that is no number as it reports a number
    out of range: a free-energy coefficient."""
    return Site(call, "", valid, integral, out_of_range, message, value, rejected=message)


SITES = {
    "MixingBands.omega_p1": Site(
        lambda v: MixingBands(v, 2e15, 1e10), "omega_p1", 1e15, 10 ** 15, -1.0,
        lambda v: f"omega_p1 must be positive and finite, got {v}", lambda b: b.omega_p1),
    "MixingBands.omega_p2": Site(
        lambda v: MixingBands(1e15, v, 1e10), "omega_p2", 2e15, 2 * 10 ** 15, 0.0,
        lambda v: f"omega_p2 must be positive and finite, got {v}", lambda b: b.omega_p2),
    "MixingBands.omega_m": Site(
        lambda v: MixingBands(1e15, 2e15, v), "omega_m", 1e10, 0, -1.0,
        lambda v: f"omega_m must be finite and >= 0, got {v}", lambda b: b.omega_m),
    "from_vacuum_wavelengths.lambda_p1": Site(
        lambda v: MixingBands.from_vacuum_wavelengths(v, 2.6e-6, 2e9), "lambda_p1",
        2.6e-6, 1, 0.0, lambda v: f"lambda_p1 must be a positive finite wavelength, got {v}",
        lambda b: b.wavelengths[0]),
    "from_vacuum_wavelengths.lambda_p2": Site(
        lambda v: MixingBands.from_vacuum_wavelengths(2.6e-6, v, 2e9), "lambda_p2",
        2.6e-6, 1, math.inf, lambda v: f"lambda_p2 must be a positive finite wavelength, got {v}",
        lambda b: b.wavelengths[1]),
    "from_vacuum_wavelengths.phonon_hz": Site(
        lambda v: MixingBands.from_vacuum_wavelengths(2.6e-6, 2.6e-6, v), "phonon_hz",
        2e9, 2 * 10 ** 9, -1.0, lambda v: f"phonon_hz must be finite and >= 0, got {v}",
        lambda b: b.omega_m),
    "PumpGeometry.power": Site(
        lambda v: PumpGeometry(v, 1.2e-6, 2.26), "power", 1e-3, 1, -1.0,
        lambda v: f"power must be finite and >= 0, got {v}", lambda g: g.power),
    "PumpGeometry.mfd": Site(
        lambda v: PumpGeometry(1e-3, v, 2.26), "mfd", 1.2e-6, 1, 0.0,
        lambda v: ("mode-field diameter must be positive and its square a finite normal "
                   f"float, got {v}"), lambda g: g.mfd),
    "PumpGeometry.n_mode": Site(
        lambda v: PumpGeometry(1e-3, 1.2e-6, v), "n_mode", 2.26, 2, 0.0,
        lambda v: f"modal index must be positive, got {v}", lambda g: g.n_mode),
    "CouplingBenchmark.g0_ref": Site(
        lambda v: CouplingBenchmark(v, "ref"), "g0_ref", 2.5e3, 2500, 0.0,
        lambda v: f"g0_ref must be positive, got {v}", lambda b: b.g0_ref),
    "peak_intensity.power": Site(
        lambda v: E.peak_intensity(v, 1.2e-6), "power", 1e-3, 1, math.nan,
        lambda v: f"power must be finite and >= 0, got {v}"),
    "damage_limited_power.mfd": Site(
        lambda v: E.damage_limited_power(BTO, v), "mfd", 1.2e-6, 1, 1e200,
        lambda v: ("mode-field diameter must be positive and its square a finite normal "
                   f"float, got {v}")),
    "eta1_rel.n": Site(
        E.eta1_rel, "n", 2.26, 2, 0.5,
        lambda v: f"refractive index must be finite and >= 1, got {v}"),
    "eta2_from_deff.d_eff": Site(
        lambda v: E.eta2_from_deff(v, 2.26, 2.26, 2.27), "d_eff", 1e-11, 0, math.inf,
        lambda v: "d_eff must be finite"),
    "eta2_from_deff.n1": Site(
        lambda v: E.eta2_from_deff(1e-11, v, 2.26, 2.27), "n1", 2.26, 2, 0.5,
        lambda v: f"refractive index must be finite and >= 1, got {v}"),
    "miller_Q.eta2": Site(
        lambda v: E.miller_Q(v, 2.26, 2.26, 2.27), "eta2", 1.9e9, 10 ** 9, math.nan,
        lambda v: f"eta2 must be finite, got {v}"),
    "miller_Q.n2": Site(
        lambda v: E.miller_Q(1.9e9, 2.26, v, 2.27), "n2", 2.26, 2, 0.5,
        lambda v: f"refractive index must be finite and > 1, got {v}"),
    "eta2_from_Q.Q": Site(
        lambda v: E.eta2_from_Q(v, 2.26, 2.26, 2.27), "Q", -1.9e9, -10 ** 9, math.inf,
        lambda v: f"Q must be finite, got {v}"),
    "q_eff_from_eta2.eta2": Site(
        lambda v: E.q_eff_from_eta2(v, (2.26, 2.26, 2.27), (0.2, 0.2, 0.77)), "eta2",
        1.9e9, 10 ** 9, math.inf, lambda v: f"eta2 must be finite, got {v}"),
    "q_eff_from_eta2.ps": Site(
        lambda v: E.q_eff_from_eta2(1.9e9, (2.26, 2.26, 2.27), (v, 0.2, 0.77)), "ps[0]",
        0.2, 0, math.inf, lambda v: f"ps must be finite, got ({v}, 0.2, 0.77)"),
    "q_eff_from_deff.d_eff": Site(
        lambda v: E.q_eff_from_deff(v, (2.26, 2.26, 2.27), (0.2, 0.2, 0.77)), "d_eff",
        1e-11, 0, math.nan, lambda v: f"d_eff must be finite, got {v}"),
    "q_eff_from_deff.ns": Site(
        lambda v: E.q_eff_from_deff(1e-11, (2.26, v, 2.27), (0.2, 0.2, 0.77)), "ns[1]",
        2.26, 2, 0.5, lambda v: f"refractive index must be finite and >= 1, got {v}"),
    "virtual_photoelasticity.q_eff": Site(
        lambda v: E.virtual_photoelasticity(v, 5.0, 7e5), "q_eff", -0.02, -1, math.inf,
        lambda v: f"q_eff must be finite, got {v}"),
    "virtual_photoelasticity.eps_r": Site(
        lambda v: E.virtual_photoelasticity(-0.02, v, 7e5), "eps_r", 5.0, 5, math.nan,
        lambda v: f"eps_r must be finite, got {v}"),
    "virtual_photoelasticity.field": Site(
        lambda v: E.virtual_photoelasticity(-0.02, 5.0, v), "field", 7e5, 700000, -1.0,
        lambda v: f"field magnitude must be finite and >= 0, got {v}"),
    "interaction_density_3wm.d1": Site(
        lambda v: E.interaction_density_3wm(0.3, v, 2e-3, 1e-5), "d1", 1e-3, 1, math.nan,
        lambda v: f"d1 must be finite, got {v}"),
    "interaction_density_4wm.dp": Site(
        lambda v: E.interaction_density_4wm(-0.02, v, 1e-3, 2e-3, 1e-5), "dp", 1e-4, 1,
        math.inf, lambda v: f"dp must be finite, got {v}"),
    "power_sweep.powers": Site(
        lambda v: E.power_sweep(BTO, BANDS, [v], 1.2e-6, 2.26), "powers[0]", 1e-3, 1, -1.0,
        lambda v: (f"power grid must lie within [0, {P_LIMIT:.6g}] W (10x the "
                   "damage-limited power for MFD 1.2e-06 m)"), lambda r: r.rows[0].power_w),
    "power_sweep.p_nominal": Site(
        lambda v: E.power_sweep(BTO, BANDS, [1e-3], 1.2e-6, 2.26, p_nominal=v),
        "p_nominal", 0.77, 1, 0.0,
        lambda v: f"p_nominal must be positive and finite to form ratios, got {v}",
        lambda r: r.p_nominal),
    "wavevector_optical.n": Site(
        lambda v: P.wavevector_optical(v, 7e14), "n", 2.26, 2, 0.5,
        lambda v: f"refractive index must be finite and >= 1, got {v}"),
    "wavevector_optical.omega": Site(
        lambda v: P.wavevector_optical(2.26, v), "omega", 7e14, 7 * 10 ** 14, 0.0,
        lambda v: f"optical angular frequency must be positive and finite, got {v}"),
    "wavevector_acoustic.omega_m": Site(
        lambda v: P.wavevector_acoustic(v, 5000.0), "omega_m", 1e10, 10 ** 10, -1.0,
        lambda v: f"phonon angular frequency must be finite and >= 0, got {v}"),
    "wavevector_acoustic.v_s": Site(
        lambda v: P.wavevector_acoustic(1e10, v), "v_s", 5000.0, 5000, 0.0,
        lambda v: f"sound speed must be positive and finite, got {v}"),
    "PhaseMatchInput.length": Site(
        lambda v: PhaseMatchInput(BANDS, BTO, v), "length", 100e-6, 1, 0.0,
        lambda v: f"interaction length must be positive, got {v}", lambda p: p.length),
    "PhaseMatchInput.poling_period": Site(
        lambda v: PhaseMatchInput(BANDS, BTO, 100e-6, v), "poling_period", 2.5e-6, 1, -1.0,
        lambda v: f"poling period must be positive, got {v}", lambda p: p.poling_period),
    "pm_efficiency.delta_k": Site(
        lambda v: P.pm_efficiency(v, 100e-6), "delta_k", 1e3, 1000, math.inf,
        lambda v: f"delta_k must be finite, got {v}"),
    "pm_efficiency.length": Site(
        lambda v: P.pm_efficiency(1e3, v), "length", 100e-6, 1, 0.0,
        lambda v: f"length must be positive and finite, got {v}"),
    "phasematch.sweep.values": Site(
        lambda v: P.sweep(PM, "poling-period", [v]), "values[0]", 2.5e-6, 1, -1.0,
        lambda v: f"poling period must be positive, got {v}", lambda r: r[0][0]),
    "DispersionModel.index": Site(
        lambda v: BTO.dispersion.index(v, 0), "wavelength", 2e-6, 1, 3e-6,
        lambda v: f"wavelength {v:.6g} m outside declared validity range [1.2e-06, "
                  "2.7e-06] m", error=RangeError),
    "DispersionModel.valid_range_m": Site(
        lambda v: DispersionModel("tabulated-points", (v, 3e-6), POINTS),
        "dispersion.valid_range_m[0]", 1e-6, 0, -1.0,
        lambda v: f"dispersion.valid_range_m must be finite, 0 < lo < hi, got ({v}, 3e-06)",
        lambda d: d.valid_range_m[0]),
    "DispersionModel.points": Site(
        lambda v: DispersionModel("tabulated-points", WINDOW, [[1e-6, v, 2.0, 2.0], POINTS[1]]),
        "dispersion.points[0][1]", 2.27, 2, math.inf,
        lambda v: f"dispersion.points[0][1] must be finite and >= 1, got {v}",
        lambda d: d.points[0][1]),
    "DispersionModel.sellmeier": Site(
        lambda v: DispersionModel("sellmeier", WINDOW, sellmeier=[[[v, 1e-14]], [], []]),
        "dispersion.sellmeier[0][0][0]", 1.5, 1, math.inf,
        lambda v: f"dispersion.sellmeier[0][0] must be finite, got [{v}, 1e-14]",
        lambda d: d.sellmeier[0][0][0]),
    "PhotoelasticTensor.entries": Site(
        lambda v: PhotoelasticTensor([[v] + [0.0] * 5] + [[0.0] * 6] * 5),
        "photoelastic.entries[0][0]", 0.2, 0, math.inf,
        lambda v: f"photoelastic.entries[0][0] must be finite or null, got {v}",
        lambda t: t.entries[0][0]),
    "Material.d_eff": Site(
        lambda v: BTO.replace(d_eff=v), "d_eff_m_per_v", 1e-11, 0, math.inf,
        lambda v: f"d_eff_m_per_v must be finite, got {v}", lambda m: m.d_eff),
    "Material.eps_r": Site(
        lambda v: BTO.replace(eps_r=(v, 5.0, 5.0)), "eps_r[0]", 5.0, 5, 0.0,
        lambda v: f"eps_r must be three positive finite numbers, got ({v}, 5.0, 5.0)",
        lambda m: m.eps_r[0]),
    "Material.v_sound": Site(
        lambda v: BTO.replace(v_sound={"longitudinal": v}), "v_sound_m_per_s.longitudinal",
        5000.0, 5000, -1.0,
        lambda v: f"v_sound_m_per_s.longitudinal must be positive and finite, got {v}",
        lambda m: m.v_sound["longitudinal"]),
    "Material.damage_threshold": Site(
        lambda v: BTO.replace(damage_threshold=v), "damage_threshold_w_per_m2", 5.4e12,
        10 ** 12, 0.0, lambda v: f"damage_threshold_w_per_m2 must be positive and finite, got {v}",
        lambda m: m.damage_threshold),
    "loader.d_eff_m_per_v": Site(
        lambda v: _load(("d_eff_m_per_v",), v), _in_file("d_eff_m_per_v"),
        1e-11, 0, math.inf, lambda v: _in_file(f"d_eff_m_per_v must be finite, got {v}"),
        lambda m: m.d_eff, error=MaterialFileError),
    "loader.dispersion.points": Site(
        lambda v: _load(("dispersion", "points", 1, 1), v),
        _in_file("dispersion.points[1][1]"), 2.26, 2, 0.5,
        lambda v: _in_file(f"dispersion.points[1][1] must be finite and >= 1, got {v}"),
        lambda m: m.dispersion.points[1][1], error=MaterialFileError),
    "FreeEnergyModel.c": _kept(
        lambda v: TH.FreeEnergyModel(c=v), 1.5, 2, math.inf,
        lambda v: f"coefficient c must be a finite number, got {v!r}", lambda m: m.c),
    "VectorFreeEnergyModel.h": _kept(
        lambda v: TH.VectorFreeEnergyModel(1.0, [v, 2.0], [0.0] * 4, [0.0] * 8,
                                           [0.0] * 4, [0.0] * 8), 1.5, 2, math.nan,
        lambda v: f"coefficient h must be 2 finite numbers, got [{v!r}, 2.0]",
        lambda m: m.h[0]),
    "eval_free_energy.x": Site(
        lambda v: TH.eval_free_energy(SCALAR, v, 0.7), "x", 0.3, 1, math.nan,
        lambda v: None),
    "stress_of.D": Site(
        lambda v: TH.stress_of(SCALAR, 0.3, v), "D", 0.7, 1, math.nan, lambda v: None),
    "efield_of.x": Site(
        lambda v: TH.efield_of(SCALAR, v, 0.7), "x", 0.3, 1, math.nan, lambda v: None),
    "extract_eta2.x": Site(
        lambda v: TH.extract_eta2(SCALAR, v), "point[0]", 0.3, 1, math.nan, lambda v: None),
    "efield_of_vector.x": Site(
        lambda v: TH.efield_of_vector(VECTOR, v, (0.2, -0.5)), "x", 0.3, 1, math.nan,
        lambda v: None, lambda r: r[0]),
    "stress_of_vector.D": Site(
        lambda v: TH.stress_of_vector(VECTOR, 0.3, (v, -0.5)), "D[0]", 0.2, 1, math.nan,
        lambda v: None),
    "fd_partial.point": Site(
        lambda v: TH.fd_partial(lambda x, d: x * d * d, (v, 0.5), (1, 2)), "point[0]",
        0.3, 1, math.nan, lambda v: None),
    "verify_relations.tol": Site(
        lambda v: TH.verify_relations(SCALAR, v), "tol", 1e-6, 1, 0.0,
        lambda v: f"tol must be positive and finite, got {v}", lambda r: r.tol),
}

NOT_NUMBERS = {"bool": True, "str": "1.0", "None": None, "huge_int": 10 ** 400}
# Table cells where null means "unmeasured": None reads as NaN, as in a file.
# A null index cell is no number, loaded or built directly.
NULL_CELLS = {"PhotoelasticTensor.entries"}
# Arguments whose default is None: the default nominal p and no grating.
NONE_IS_DEFAULT = {"power_sweep.p_nominal", "PhaseMatchInput.poling_period"}


def _rejects(site: Site, v, error: type, message: str) -> None:
    with pytest.raises(error) as exc:
        site.call(v)
    assert str(exc.value) == message


def _outcome(site: Site, v) -> str:
    """The repr of what the site returns for ``v``, or of the error it raises."""
    try:
        return repr(site.call(v))
    except (ValueError, RangeError, MaterialFileError) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("kind", ["float", "numpy", "int", *NOT_NUMBERS, "out_of_range"])
@pytest.mark.parametrize("name", list(SITES))
def test_real_argument(name, kind):
    site = SITES[name]
    if kind == "float":
        assert type(site.value(site.call(site.valid))) is float
    elif kind == "numpy":
        # Stored or used as a plain float: the result prints as the float's
        # does (numpy 2 prints a numpy scalar with its type).
        got, want = site.call(np.float64(site.valid)), site.call(site.valid)
        assert repr(got) == repr(want)
        assert type(site.value(got)) is float
    elif kind == "int":
        # Read as the float it equals, whether the site accepts it or not.
        assert _outcome(site, site.integral) == _outcome(site, float(site.integral))
        if "Error" not in _outcome(site, site.integral):
            assert type(site.value(site.call(site.integral))) is float
    elif kind == "out_of_range":
        if site.message(site.out_of_range) is None:    # no range: NaN flows through
            assert math.isnan(site.value(site.call(site.out_of_range)))
        else:
            _rejects(site, site.out_of_range, site.error, site.message(site.out_of_range))
    else:
        v = NOT_NUMBERS[kind]
        if name in NONE_IS_DEFAULT and v is None:
            site.call(v)
        elif name in NULL_CELLS and v is None:
            assert math.isnan(site.value(site.call(v)))
        elif site.rejected is not None:
            _rejects(site, v, ValueError, site.rejected(v))
        else:
            error = MaterialFileError if name.startswith("loader.") else ValueError
            _rejects(site, v, error, f"{site.name} must be a number, got {v!r}")


def test_real_reads_numbers_and_nothing_else():
    x = 2.5
    assert _real(x) is x
    for v, want in ((3, 3.0), (np.int64(3), 3.0), (np.float32(0.5), 0.5),
                    (np.float64(2.5), 2.5), (-0.0, -0.0)):
        got = _real(v)
        assert type(got) is float and repr(got) == repr(want)
    for v in (True, np.bool_(True), "1.0", None, 1j, 10 ** 400, [1.0], np.array(1.0)):
        assert _real(v) is None
        assert _real(v, v) is v


# (id, call, message): a grid that is no sequence of numbers is named.
GRIDS = [(f"{name}-{label}", name, grid, message)
         for name in ("powers", "values")
         for label, grid, message in [
             ("str-cell", ["1e-3"], "[0] must be a number, got '1e-3'"),
             ("bool-cell", [True], "[0] must be a number, got True"),
             ("str", "1", "[0] must be a number, got '1'"),
             ("letters", "abc", "[0] must be a number, got 'a'"),
             ("0-d", np.array(1e-3), " must be a sequence of numbers, got array(0.001)"),
             ("None", None, " must be a sequence of numbers, got None")]]


@pytest.mark.parametrize("name, grid, message", [g[1:] for g in GRIDS],
                         ids=[g[0] for g in GRIDS])
def test_bad_sweep_grid_is_named(name, grid, message):
    with pytest.raises(ValueError) as exc:
        if name == "powers":
            E.power_sweep(BTO, BANDS, grid, 1.2e-6, 2.26)
        else:
            P.sweep(PM, "poling-period", grid)
    assert str(exc.value) == name + message


def test_numpy_grids_keep_their_bytes():
    grid = np.linspace(1e-3, 1.0, 5)
    rows = E.power_sweep(BTO, BANDS, grid, 1.2e-6, 2.26).to_csv()
    assert rows == E.power_sweep(BTO, BANDS, grid.tolist(), 1.2e-6, 2.26).to_csv()
    periods = np.linspace(2.4e-6, 2.6e-6, 5)
    assert (P.sweep_to_csv(P.sweep(PM, "poling-period", periods))
            == P.sweep_to_csv(P.sweep(PM, "poling-period", periods.tolist())))


KIND = ("dispersion.kind must be 'tabulated-points', with points, or 'sellmeier', with "
        "sellmeier terms; got ")
MISSING = " must be a sequence of numbers, got None"
KINDS = [
    ("sellmeier-with-points", lambda: DispersionModel("sellmeier", WINDOW, points=POINTS),
     "dispersion.sellmeier" + MISSING),
    ("bogus-kind", lambda: DispersionModel("bogus", WINDOW, points=POINTS), KIND + "'bogus'"),
    ("tabulated-without-points", lambda: DispersionModel("tabulated-points", WINDOW),
     "dispersion.points" + MISSING),
    ("tabulated-empty-points", lambda: DispersionModel("tabulated-points", WINDOW, points=[]),
     KIND + "'tabulated-points'"),
]


@pytest.mark.parametrize("call, message", [k[1:] for k in KINDS], ids=[k[0] for k in KINDS])
def test_dispersion_kind_needs_its_table(call, message):
    # Each failed at the first lookup with a bare TypeError or IndexError.
    # The table a kind names is read even if it is missing, so it is named.
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_sellmeier_terms_must_be_three_axes_of_pairs():
    with pytest.raises(ValueError, match=r"^dispersion\.sellmeier must be 3 axis lists"):
        DispersionModel("sellmeier", WINDOW, sellmeier=[[[1.0, 1e-14]], []])
    with pytest.raises(ValueError, match=r"^dispersion\.sellmeier must be 3 axis lists"):
        DispersionModel("sellmeier", WINDOW, sellmeier=[[[1.0, 1e-14, 0.0]], [], []])


@pytest.mark.parametrize("window", [(1e-6, 2e-6, 3e-6), (1e-6,)], ids=["three", "one"])
def test_valid_range_must_be_a_pair(window):
    # Was a bare "too many values to unpack" (or "not enough values").
    with pytest.raises(ValueError) as exc:
        DispersionModel("tabulated-points", window, POINTS)
    assert str(exc.value) == f"dispersion.valid_range_m must be [lo, hi], got {window}"

def _designs(n, real):
    """Reprs of every result of ``n`` seeded designs, inputs passed through
    ``real`` (float or np.float64)."""
    rng = random.Random(5)
    out = []
    for _ in range(n):
        # Pumps in 2.45-2.7 um keep the output band inside the 1.2-2.7 um window.
        l1, l2 = rng.uniform(2.45e-6, 2.7e-6), rng.uniform(2.45e-6, 2.7e-6)
        ghz, axes = rng.uniform(1.0, 10.0), tuple(rng.randrange(3) for _ in range(3))
        power, mfd, n_mode = rng.uniform(1e-4, 1.0), rng.uniform(0.8e-6, 3e-6), rng.uniform(1.5, 3)
        length = rng.uniform(20e-6, 2e-3)
        bands = MixingBands.from_vacuum_wavelengths(real(l1), real(l2), real(ghz * 1e9),
                                                    axes=axes)
        chain = E.second_order_photoelasticity(BTO, bands, apply_qpm_reduction=True)
        field = E.peak_field_from_power(PumpGeometry(real(power), real(mfd), real(n_mode)))
        pm = PhaseMatchInput(bands, BTO, real(length))
        period, sign = P.poling_period(pm)
        poled = PhaseMatchInput(bands, BTO, real(length), real(period), sign)
        out.append(repr((
            bands, chain, field, E.peak_intensity(real(power), real(mfd)),
            E.damage_limited_power(BTO, real(mfd)),
            E.virtual_photoelasticity(real(chain.q_eff), real(5.0), real(field)),
            P.delta_k(pm), P.delta_k(poled), P.three_wave_residual(poled, 1),
            E.power_sweep(BTO, bands, [real(1e-3), real(power)], real(mfd), real(n_mode)),
            P.sweep(poled, "poling-period", [real(period), real(period * 1.01)]))))
    return out


def test_numpy_scalar_designs_give_the_float_bits():
    assert _designs(200, np.float64) == _designs(200, float)
