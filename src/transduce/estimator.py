"""Estimation chain for the four-wave-mixing optomechanical coupling.

The chain goes: tabulated linear optics and d_eff -> second-order inverse
susceptibility -> Miller proportionality constant -> effective second-order
photoelasticity q_eff (m^2/C) -> virtual first-order photoelasticity p_virt
obtained by contracting q_eff with the classical pump field.  Two algebraic
routes to q_eff exist and must agree to machine precision:

* the susceptibility route,  q = -eps0 * eta2 * sum_n p_n / (1 - eps0*eta1_n)
* the closed form,           q = -(2 d_eff / (eps0 n1^2 n2^2 n3^2))
                                  * sum_n p_n / (1 - 1/n_n^2)

with eps0*eta1_n = 1/n_n^2 per band.  Signs follow the closed form: positive
d_eff and p entries give a negative q_eff; reports carry the signed value and
regression tests compare magnitudes.

Pump-power bookkeeping uses the average-peak-field relation
|E| = sqrt(16 P / (n pi eps0 c MFD^2)) and the top-hat intensity convention
I = P / (pi (MFD/2)^2), which is the convention that reproduces the
88.4 kW/cm^2 benchmark at 1 mW through a 1.2 um mode-field diameter (the
Gaussian peak convention 2P/(pi w^2) would be a factor 2 higher).

The chain (eta2, Q, q_eff, the interaction densities) and the per-point
formulas (peak field, intensity, p_virt) are plain float arithmetic in the
operand order of their dimensioned references, which the tests build from
the quantities of ``tests/dimensioned.py``, so they give its bits; the tests
assert each composition's dimension.  Every public function reads its float
arguments with ``errors._reals``, the package's one rule for a real
argument, which names one that is no number, and holds one with a range to
it with ``errors._real_in``, which names one out of its range; an index is
named by its place (``n``, ``n1``, ``ns[1]``, ``n_bands[0]``).  _eta2, on
a design's path, compares d_eff and the indices inline and calls
``_real_in`` only to name one that fails.  The public chain steps and
the constructor of MillerChain then call the same private steps, which take
floats already read: the per-band terms 1/n^2 and 1 - 1/n^2, eta2, Q, and
the band sum with the closed-form q_eff.  second_order_photoelasticity
looks up the indices and entries, scales d_eff, and builds the MillerChain,
which runs the chain on them, so a ``replace`` of an input runs it again.
Only damage_limited_power composes ``units.Quantity`` objects at run time,
the one composition the runtime unit layer keeps (see its comment).

Every result of the chain (1/n^2, eta2, Q, q_eff), of a per-point formula
(p_virt, the interaction densities, the intensity, the peak field's
radicand, a sweep row's p_virt/p_nominal, intensity/threshold and
g_scaled), the damage-limited power and the omega_m from_vacuum_wavelengths
computes passes ``errors._result``, the package's one rule for a computed
float, which names the inputs of a result that is not finite, or that is 0
or subnormal though no factor of it is 0; so no infinity and no silent zero
reaches a report.  Each site passes, as ``zero``, whether a factor is 0
(d_eff = 0, a zero band sum, a vacuum band's 1 - 1/n^2, zero power, a zero
field), and an exact zero then is kept.  A site on a design's path calls
``_result`` only when its value is not a finite normal float.  A
DesignReport builds each SweepRow from values that have just passed the
rule, so a row stores them as given.

Each band's photoelastic entry p[axis, axis; strain] is read as
``entries[axis][strain_voigt]``: in the Voigt order (00, 11, 22, 12, 02, 01)
a diagonal pair packs to its axis, so the chain needs no packing table, and
``tensors`` serves the material database alone.

A design's three band indices are looked up once: the chain and
phasematch's delta_k and poling_period read them through _band_indices,
which keeps them on the bands, keyed on the material.  The chain names a
material that is no Material and bands that are no MixingBands;
damage_limited_power names a material that is no Material and
peak_field_from_power a geometry that is no PumpGeometry, each with an
inline ``isinstance`` that adds no call to a design.

A pump-power sweep is the record ``DesignReport(material, bands, powers,
mfd, n_mode, benchmark, p_nominal)``: it stores those inputs and runs the
sweep in its constructor, so its ``chain`` and ``rows`` are attributes that
are no fields and a ``replace`` runs it again.  power_sweep is one call to
that constructor, kept a function so a caller can wrap and time it as one.
It resolves the two defaults, the piezo-optomechanical benchmark and the
largest measured photoelastic entry as ``p_nominal``, and the report stores
the values it resolved: ``replace(material=...)`` keeps the ``p_nominal``
yardstick the report was built with.  A report holds a Material, so, like
it, it is not hashable.  Its ``to_csv`` and phasematch's sweep_to_csv write
through one private writer, _csv: a header line, then each row's values as
``repr``s joined by commas, every line ending in a newline.

A user's argument is still read once.  from_vacuum_wavelengths reads and
checks its wavelengths and phonon frequency, then passes the omegas it
computes to the constructor, the only gate of a MixingBands: a float comes
through ``errors._real_in`` with one type test and a range check, so the
constructor names an omega that overflows, and an omega_t, their sum, that
overflows though each is finite.  PumpGeometry reads ``mfd``
once, through the same _mfd check as the mode area.
"""

from __future__ import annotations

import math
import sys

from ._record import Record
from .errors import (_AT_LEAST_ONE, _FINITE, _MIN_NORMAL, _NON_NEGATIVE, _POSITIVE,
                     DataError, SingularityError, _integer, _real_in, _reals, _require,
                     _result, _sequence)
from .materials import Material, refractive_index
from .units import (C_LIGHT, EPS0, METER, Quantity, TWO_PI, TWO_PI_C, WATT,
                    WATT_PER_M2)

# Published single-photon optomechanical coupling rates used as proportional-
# scaling anchors by power_sweep.  These are literature reference points, not
# outputs of this package; any column derived from them is an extrapolation.
G0_PIEZO_OPTOMECHANICAL_RAD_S = TWO_PI * 400.0      # integrated piezo-optomechanical transducer
G0_OPTOMECHANICAL_CRYSTAL_RAD_S = TWO_PI * 850.0e3  # high-coupling optomechanical crystal

_AXES, _INT3, _FLOAT6 = frozenset((0, 1, 2)), (int, int, int), (float,) * 6


class MixingBands(Record):
    """The three optical bands and one acoustic band of the mixing process.

    Energy conservation fixes omega_t = omega_p1 + omega_p2 + omega_m; the
    constructor derives it, with the vacuum ``wavelengths``, as an attribute
    that is no field, so ``replace`` computes both again.  Two more such
    attributes, ``_indices`` and ``_wavevectors``, each ``(material,
    values)``, keep the lookups of the last material the bands were used with.
    ``axes`` gives the polarization axis (0..2) of each band in the order
    (pump1, pump2, transduced), a sequence of three ints read in the order
    given by ``errors._sequence`` (a set or a dict, with no order, is none:
    ``axes must be a sequence of numbers, got {0, 1, 2}``, and ``axes=(0,
    1)`` gives ``axes must hold 3 values, got 2``); ``acoustic_mode`` keys
    the material's sound speed table and ``strain_voigt`` selects the strain
    column of the photoelastic tensors driven by that mode.
    """

    def __init__(self, omega_p1: float, omega_p2: float, omega_m: float,
                 axes: tuple[int, int, int] = (0, 1, 2),
                 acoustic_mode: str = "longitudinal", strain_voigt: int = 2):
        w1 = _real_in(omega_p1, "omega_p1", _POSITIVE)
        w2 = _real_in(omega_p2, "omega_p2", _POSITIVE)
        wm = _real_in(omega_m, "omega_m", _NON_NEGATIVE)
        # Indices are stored as plain ints, read in order by the sequence
        # rule; a float or a bool is no index.  A tuple of three plain ints
        # is kept as it is, with no call.  Else the message shows the items
        # as read, so an iterator shows its values, not its address.
        ints = (axes if type(axes) is tuple and tuple(map(type, axes)) == _INT3
                else tuple(map(_integer, axes := _sequence(axes, "axes", (3,)))))
        if not _AXES.issuperset(ints):
            raise ValueError(f"axes must be three indices in 0..2, got {axes}")
        if (sv := _integer(strain_voigt)) is None or not 0 <= sv <= 5:
            raise ValueError(f"strain_voigt must be in 0..5, got {strain_voigt}")
        if not isinstance(acoustic_mode, str):  # a key of the sound speed table
            raise ValueError(f"acoustic_mode must be a string, got {acoustic_mode}")
        if not (wt := w1 + w2 + wm) < math.inf:        # three finite omegas can overflow
            _result("omega_t", wt, False, omega_p1=w1, omega_p2=w2, omega_m=wm)
        # An omega below about 1e-299 rad/s has an infinite wavelength;
        # omega_t >= omega_p1, so its wavelength cannot overflow.
        if not (l1 := TWO_PI_C / w1) < math.inf:
            _result("vacuum wavelength", l1, False, omega_p1=w1)
        if not (l2 := TWO_PI_C / w2) < math.inf:
            _result("vacuum wavelength", l2, False, omega_p2=w2)
        # Derived: omega_t, and the vacuum wavelengths (m) of (pump1, pump2,
        # transduced); the lookups start keyed on no material and are
        # replaced in place.
        self.__dict__.update(
            omega_p1=w1, omega_p2=w2, omega_m=wm, axes=ints,
            acoustic_mode=acoustic_mode, strain_voigt=sv, omega_t=wt,
            wavelengths=(l1, l2, TWO_PI_C / wt),
            _indices=(None, ()), _wavevectors=(None, ()))

    @classmethod
    def from_vacuum_wavelengths(cls, lambda_p1: float, lambda_p2: float,
                                phonon_hz: float, **kw) -> "MixingBands":
        """Build from pump vacuum wavelengths (m) and a phonon frequency (Hz);
        the constructor checks the omegas they give and names one that
        overflows."""
        l1 = _real_in(lambda_p1, "lambda_p1", _POSITIVE)
        l2 = _real_in(lambda_p2, "lambda_p2", _POSITIVE)
        hz = _real_in(phonon_hz, "phonon_hz", _NON_NEGATIVE)
        if (wm := TWO_PI * hz) < _MIN_NORMAL:     # an overflow is the constructor's
            _result("omega_m", wm, not hz, phonon_hz=hz)
        return cls(TWO_PI_C / l1, TWO_PI_C / l2, wm, **kw)


class MillerChain(Record):
    """Every intermediate of the q_eff estimate, for reporting and audits.

    It stores the three band indices, the three photoelastic entries and the
    d_eff it is given, read as two float tuples and a float, and runs the
    chain on them: ``eta1_rel_bands`` (1/n^2 per band), ``eta2``, the Miller
    ``Q`` and the closed-form ``q_eff`` are attributes that are no fields, so
    ``replace`` runs the chain again.  A non-number or a wrong count of
    values is named; the other checks are the chain's: a d_eff that is not
    finite, an index below 1, a vacuum band and a result out of range raise.
    """

    def __init__(self, n_bands: tuple[float, float, float],
                 p_entries: tuple[float, float, float], d_eff: float):
        # Two float triples and a float, as second_order_photoelasticity
        # passes them, are kept; anything else is read as floats, and a
        # wrong length or a non-number is named.
        if not (type(n_bands) is type(p_entries) is tuple and type(d_eff) is float
                and tuple(map(type, n_bands + p_entries)) == _FLOAT6):
            n_bands, p_entries = _check_bands(n_bands, p_entries, ("n_bands", "p_entries"))
            d_eff = _reals(d_eff, "d_eff")
        # _eta2 rejects a non-finite d_eff and n < 1, then a vacuum band is
        # singular and a 1/n^2 that underflows is named; q_eff is checked
        # before Q, so an input whose q_eff overflows too is named by q_eff.
        eta2 = _eta2(d_eff, n_bands, "n_bands")
        eta1s, denoms = _band_terms(n_bands, "Miller constant")
        if not _MIN_NORMAL <= abs(eta1 := min(eta1s)) < math.inf:
            _result("eta1_rel", eta1, False, ns=n_bands)    # 1/n^2 is never 0
        q_eff = _q_eff_closed_form(d_eff, n_bands, p_entries, denoms)
        self.__dict__.update(n_bands=n_bands, p_entries=p_entries, d_eff=d_eff,
                             eta1_rel_bands=eta1s, eta2=eta2,
                             Q=_miller_Q(eta2, n_bands, denoms), q_eff=q_eff)


_MAX_FLOAT = sys.float_info.max
_PerBand = tuple[float, float, float]     # (pump1, pump2, transduced)
_SQUARE_METER = METER * METER


def _mfd(mfd) -> float:
    """``mfd`` read as a float whose square is a finite normal float, so the
    area formulas cannot overflow or underflow."""
    if not (0 < (d := _reals(mfd, "mfd")) and _MIN_NORMAL <= d * d <= _MAX_FLOAT):
        raise ValueError("mode-field diameter must be positive and its square "
                         f"a finite normal float, got {mfd}")
    return d


def _mode_area(mfd) -> float:
    """Top-hat mode area pi (MFD/2)^2 in m^2."""
    return math.pi * (_mfd(mfd) / 2.0) ** 2


class PumpGeometry(Record):
    """Guided pump: power (W), mode-field diameter (m), modal index."""

    def __init__(self, power: float, mfd: float, n_mode: float):
        power, d = _real_in(power, "power", _NON_NEGATIVE), _mfd(mfd)
        self.__dict__.update(power=power, mfd=d, n_mode=_real_in(n_mode, "n_mode", _POSITIVE))


class CouplingBenchmark(Record):
    """A published coupling rate against which scalings are expressed."""

    def __init__(self, g0_ref: float, label: str):     # g0_ref in rad/s
        g = _real_in(g0_ref, "g0_ref", _POSITIVE)
        _require(isinstance(label, str) and label != "", "label", "a non-empty str", label)
        self.__dict__.update(g0_ref=g, label=label)


PIEZO_OPTOMECHANICAL_BENCHMARK = CouplingBenchmark(
    G0_PIEZO_OPTOMECHANICAL_RAD_S,
    "integrated piezo-optomechanical transducer, 2pi x 400 Hz (literature)")
OPTOMECHANICAL_CRYSTAL_BENCHMARK = CouplingBenchmark(
    G0_OPTOMECHANICAL_CRYSTAL_RAD_S,
    "optomechanical crystal device, 2pi x 850 kHz (literature)")


def _check_indices(ns: _PerBand, name: str | None = None) -> None:
    """Hold each index to finite and >= 1; the one at place i is named
    ``<name>[i]``, or ``n<i+1>`` if ``name`` is None."""
    for i, n in enumerate(ns):
        _real_in(n, f"n{i + 1}" if name is None else f"{name}[{i}]", _AT_LEAST_ONE)


def _read_indices(n1, n2, n3) -> _PerBand:
    """The indices given as ``n1``, ``n2`` and ``n3``, read as floats."""
    return tuple(map(_reals, (n1, n2, n3), ("n1", "n2", "n3")))


def _check_bands(ns, ps, names=("ns", "ps")) -> tuple[_PerBand, _PerBand]:
    """The three band indices and the three photoelastic entries, read as
    floats and named by ``names``; the indices checked."""
    ns, ps = _reals(ns, names[0], (3,)), _reals(ps, names[1], (3,))
    _check_indices(ns, names[0])
    return ns, ps


def eta1_rel(n: float) -> float:
    """Relative first-order inverse susceptibility eps0*eta1 = 1/n^2."""
    n = _real_in(n, "n", _AT_LEAST_ONE)
    return _result("eta1_rel", 1.0 / (n * n), False, n=n)


def _band_terms(ns: _PerBand, singular: str | None) -> tuple[_PerBand, _PerBand]:
    """(1/n^2, 1 - 1/n^2) per band for indices already checked >= 1.

    A vacuum band (n = 1) zeroes its denominator; it raises SingularityError
    for the quantity ``singular`` unless that is None.  The bands are written
    out rather than mapped through eta1_rel, which would re-check each n.
    """
    if singular is not None and 1.0 in ns:
        raise SingularityError(f"{singular} is singular for a vacuum band (n = 1)")
    n1, n2, n3 = ns
    eta1s = (1.0 / (n1 * n1), 1.0 / (n2 * n2), 1.0 / (n3 * n3))
    return eta1s, (1.0 - eta1s[0], 1.0 - eta1s[1], 1.0 - eta1s[2])


def _miller_Q(eta2: float, ns: _PerBand, denoms: _PerBand) -> float:
    d1, d2, d3 = denoms
    Q = -eta2 / (d1 * d2 * d3)
    # Each factor lies in (0, 1], so Q is 0 only when eta2 is: an exact 0.
    if not _MIN_NORMAL <= abs(Q) < math.inf:
        n1, n2, n3 = ns
        _result("Miller Q", Q, not eta2, eta2=eta2, n1=n1, n2=n2, n3=n3)
    return Q


def _band_sum(ps: _PerBand, denoms: _PerBand) -> float:
    """sum_n p_n / (1 - 1/n_n^2), the band sum shared by both q_eff routes.

    Added left to right from 0.0, as ``sum()`` adds floats up to Python 3.11.
    From 3.12 on ``sum()`` compensates its rounding and moves q_eff by an ulp
    in some designs; the written-out order gives the same bits on every Python.
    """
    (p1, p2, p3), (d1, d2, d3) = ps, denoms
    return 0.0 + p1 / d1 + p2 / d2 + p3 / d3


def _q_eff_closed_form(d_eff: float, ns: _PerBand, ps: _PerBand, denoms: _PerBand) -> float:
    n1, n2, n3 = ns
    s = _band_sum(ps, denoms)
    q_eff = -(2.0 * d_eff) / (EPS0 * (n1 * n1 * n2 * n2 * n3 * n3)) * s
    if not _MIN_NORMAL <= abs(q_eff) < math.inf:
        _result("q_eff", q_eff, not (d_eff and s), d_eff=d_eff, ns=ns, ps=ps)
    return q_eff


def eta2_from_deff(d_eff: float, n1: float, n2: float, n3: float) -> float:
    """Second-order inverse susceptibility from the tabulated d_eff.

    eta2 = 2 d_eff / (eps0^2 n1^2 n2^2 n3^2); linear in d_eff.
    """
    return _eta2(_reals(d_eff, "d_eff"), _read_indices(n1, n2, n3))


def _eta2(d_eff: float, ns: _PerBand, name: str | None = None) -> float:
    """eta2_from_deff for a d_eff and indices that are floats already; an
    index out of range is named as _check_indices names it."""
    n1, n2, n3 = ns
    if not (-math.inf < d_eff < math.inf and 1.0 <= n1 < math.inf and 1.0 <= n2 < math.inf
            and 1.0 <= n3 < math.inf):
        _real_in(d_eff, "d_eff", _FINITE)
        _check_indices(ns, name)
    eta2 = (2.0 * d_eff) / (EPS0 * EPS0 * (n1 * n1 * n2 * n2 * n3 * n3))
    if not _MIN_NORMAL <= abs(eta2) < math.inf:
        _result("eta2", eta2, not d_eff, d_eff=d_eff, n1=n1, n2=n2, n3=n3)
    return eta2


def miller_Q(eta2: float, n1: float, n2: float, n3: float) -> float:
    """Miller proportionality constant Q = -eta2 / prod(1 - 1/n^2)."""
    ns = _read_indices(n1, n2, n3)
    i, n = next(((i, n) for i, n in enumerate(ns, 1) if not 1.0 < n < math.inf), (0, 1.0))
    if n != 1.0:        # a vacuum band first is singular (_band_terms)
        raise ValueError(f"n{i} must be finite and > 1, got {n}")
    return _miller_Q(_reals(eta2, "eta2"), ns, _band_terms(ns, "Miller constant")[1])


def eta2_from_Q(Q: float, n1: float, n2: float, n3: float) -> float:
    """Inverse of miller_Q; round-trips to machine precision."""
    _check_indices(ns := _read_indices(n1, n2, n3))
    product = math.prod(_band_terms(ns, None)[1])
    # Each factor lies in [0, 1], so Q is named if eta2 is not finite.
    return _result("eta2", -(Q := _reals(Q, "Q")) * product, not (Q and product),
                   Q=Q, n1=n1, n2=n2, n3=n3)


def q_eff_from_eta2(eta2: float, ns: tuple[float, float, float],
                    ps: tuple[float, float, float]) -> float:
    """Susceptibility route: q = -eps0 * eta2 * sum_n p_n / (1 - eps0*eta1_n)."""
    eta2, (ns, ps) = _reals(eta2, "eta2"), _check_bands(ns, ps)
    s = _band_sum(ps, _band_terms(ns, "q_eff")[1])
    return _result("q_eff", -(EPS0 * eta2) * s, not (eta2 and s), eta2=eta2, ns=ns, ps=ps)


def q_eff_from_deff(d_eff: float, ns: tuple[float, float, float],
                    ps: tuple[float, float, float]) -> float:
    """Closed form: q = -(2 d_eff/(eps0 n1^2 n2^2 n3^2)) sum_n p_n/(1 - 1/n_n^2)."""
    d_eff, (ns, ps) = _reals(d_eff, "d_eff"), _check_bands(ns, ps)
    return _q_eff_closed_form(d_eff, ns, ps, _band_terms(ns, "q_eff")[1])


def qpm_deff_reduction(order: int) -> float:
    """Nominal-to-effective d_eff factor 2/(order*pi) under periodic poling."""
    if (m := _integer(order)) is None or m < 1:
        raise ValueError(f"poling diffraction order must be >= 1, got {order}")
    return 2.0 / (m * math.pi)


def _band_indices(m: Material, bands: MixingBands) -> _PerBand:
    """(n_p1, n_p2, n_t): the index of each band at its axis, looked up in
    band order, or taken from ``bands._indices`` if it holds ``m`` (both
    are frozen, so the floats are the same).

    The entry is one tuple, replaced whole, so a reader in another thread
    sees a whole entry; a lookup that raises stores nothing.
    """
    material, ns = bands._indices
    if material is not m:
        (l1, l2, l3), (a1, a2, a3) = bands.wavelengths, bands.axes
        ns = (refractive_index(m, l1, a1), refractive_index(m, l2, a2),
              refractive_index(m, l3, a3))
        bands.__dict__["_indices"] = (m, ns)
    return ns


def second_order_photoelasticity(m: Material, bands: MixingBands,
                                 apply_qpm_reduction: bool = False) -> MillerChain:
    """Run the full Miller's-rule chain for ``m`` on the given bands.

    Looks up the refractive index of each band at its polarization axis, the
    photoelastic entry p[axis, axis; strain] for each band (row ``axis`` of
    the Voigt table, column ``strain_voigt``), and the material
    d_eff (reduced by 2/(qpm_order*pi) only when a poling grating is actually
    in use, i.e. ``apply_qpm_reduction=True``).  Raises DataError if a needed
    photoelastic entry is unmeasured (stored null).
    """
    _require(isinstance(m, Material), "material", "a Material", m)
    _require(isinstance(bands, MixingBands), "bands", "a MixingBands", bands)
    ns = _band_indices(m, bands)
    # The pair (axis, axis) packs to ``axis``, and MixingBands stores its
    # axes as ints in 0..2, so the axis is the row.
    (a1, a2, a3), sv, rows = bands.axes, bands.strain_voigt, m.photoelastic.entries
    ps = (rows[a1][sv], rows[a2][sv], rows[a3][sv])
    # An entry is finite or NaN (unmeasured), so the sum is NaN if one is.
    if math.isnan(ps[0] + ps[1] + ps[2]):
        axis = next(a for a, p in zip(bands.axes, ps) if math.isnan(p))
        raise DataError(f"material '{m.name}' has no photoelastic entry [{axis}][{sv}] "
                        f"(axis {axis}, strain column {sv}) required by these bands")
    d_eff = m.d_eff * (qpm_deff_reduction(m.qpm_order) if apply_qpm_reduction else 1.0)
    return MillerChain(ns, ps, d_eff)


def peak_field_from_power(g: PumpGeometry) -> float:
    """Average peak field |E| = sqrt(16 P / (n pi eps0 c MFD^2)), in V/m."""
    if not isinstance(g, PumpGeometry):     # inline: no call on a design's path
        _require(False, "geometry", "a PumpGeometry", g)
    denom = g.n_mode * math.pi * EPS0 * C_LIGHT * g.mfd * g.mfd
    radicand = 16.0 * g.power / denom if 0 < denom < math.inf else math.inf
    if not _MIN_NORMAL <= abs(radicand) < math.inf:
        _result("peak field", radicand, not g.power, power=g.power, mfd=g.mfd,
                n_mode=g.n_mode)
    return math.sqrt(radicand)


def peak_intensity(power: float, mfd: float) -> float:
    """Top-hat intensity P / (pi (MFD/2)^2), in W/m^2."""
    intensity = (p := _real_in(power, "power", _NON_NEGATIVE)) / _mode_area(mfd)
    if not _MIN_NORMAL <= abs(intensity) < math.inf:
        _result("peak intensity", intensity, not p, power=power, mfd=mfd)
    return intensity


def _over_threshold(intensity: float, m: Material) -> float:
    """The peak intensity over the damage threshold of ``m``."""
    # The threshold is positive, so the ratio is an exact 0 only when the
    # intensity is.
    return _result("intensity_over_threshold", intensity / m.damage_threshold,
                   not intensity, intensity=intensity, damage_threshold=m.damage_threshold)


def damage_limited_power(m: Material, mfd: float) -> float:
    """Largest power (W) keeping the peak intensity at the damage threshold."""
    if not isinstance(m, Material):
        _require(False, "material", "a Material", m)
    # The one runtime Quantity composition: the traced benchmark's
    # units.quantities_per_point (bench/worker.py, grid_metrics) indexes each
    # power sweep's Quantity count by key, so a sweep must build one.  This
    # moves to floats, and the unit classes to the tests, once that read is
    # .get(QUANTITY, 0).
    power = (Quantity(m.damage_threshold, WATT_PER_M2)
             * Quantity(_mode_area(mfd), _SQUARE_METER)).expect(WATT, "power")
    # Both factors are positive, so a power below the normal range underflowed.
    if not _MIN_NORMAL <= abs(power) < math.inf:
        _result("damage-limited power", power, False,
                damage_threshold=m.damage_threshold, mfd=mfd)
    return power


def virtual_photoelasticity(q_eff: float, eps_r: float, field: float) -> float:
    """Virtual first-order photoelasticity p_virt = (2/3) eps0 q_eff eps_r |E|.

    ``field`` is the pump field magnitude (V/m, >= 0); the result is
    dimensionless and carries the sign of q_eff.
    """
    q, e = _real_in(q_eff, "q_eff", _FINITE), _real_in(eps_r, "eps_r", _POSITIVE)
    f = _real_in(field, "field", _NON_NEGATIVE)
    p_virt = (2.0 / 3.0) * EPS0 * q * e * f
    if not _MIN_NORMAL <= abs(p_virt) < math.inf:
        _result("virtual photoelasticity", p_virt, not (q and f), q_eff=q, eps_r=e, field=f)
    return p_virt


def _density(divisor: float, **factors) -> float:
    """The product of ``factors``, read as floats, over ``divisor``."""
    values = tuple(map(_reals, factors.values(), factors))
    return _result("interaction density", math.prod(values) / divisor, not all(values),
                   **factors)


def interaction_density_3wm(p_eff: float, d1: float, d2: float, x: float) -> float:
    """Three-wave interaction energy density (1/(2 eps0)) p d1 d2 x, J/m^3."""
    return _density(2.0 * EPS0, p_eff=p_eff, d1=d1, d2=d2, x=x)


def interaction_density_4wm(q_eff: float, dp: float, d1: float, d2: float,
                            x: float) -> float:
    """Four-wave interaction energy density (1/(3 eps0)) q dp d1 d2 x, J/m^3.

    Grouping the pump displacement with q reduces this to the three-wave form:
    interaction_density_4wm(q, dp, d1, d2, x)
        == interaction_density_3wm((2/3) q dp, d1, d2, x)
    exactly, which is the algebraic content of the virtual photoelasticity.
    """
    return _density(3.0 * EPS0, q_eff=q_eff, dp=dp, d1=d1, d2=d2, x=x)


class SweepRow(Record):
    """One power grid point of a pump sweep (all SI): the row type of a
    DesignReport.

    Only DesignReport builds one, from values that have just passed the
    result rule, so it stores its values as given: floats, each finite,
    and each but the signed ``p_virt`` >= 0.
    """

    def __init__(self, power_w: float, peak_field_v_per_m: float,
                 intensity_w_per_m2: float, p_virt: float, p_virt_over_p_nominal: float,
                 intensity_over_threshold: float, g_scaled_rad_per_s: float):
        self.__dict__.update(zip(self._fields, (
            power_w, peak_field_v_per_m, intensity_w_per_m2, p_virt,
            p_virt_over_p_nominal, intensity_over_threshold, g_scaled_rad_per_s)))


POWER_SWEEP_CSV_HEADER = ("power_w,peak_field_v_per_m,intensity_w_per_m2,p_virt,"
                          "p_virt_over_p_nominal,intensity_over_threshold,"
                          "g_scaled_extrapolated_rad_per_s")


def _csv(header: str, rows) -> str:
    """The CSV text of a sweep: ``header``, then each row's values as their
    ``repr``s joined by commas, every line ending in a newline."""
    return "\n".join([header, *(",".join(map(repr, row)) for row in rows)]) + "\n"


class DesignReport(Record):
    """A pump-power sweep of one design: its chain, its rows and the caveats
    that qualify them.

    It stores what it is given: the ``material``, the ``bands``, the
    ``powers`` (W, a nonempty grid within ten times the damage-limited power
    for this geometry, read as a float tuple), the pump mode's ``mfd`` and
    ``n_mode``, the ``benchmark`` whose coupling the g_scaled column
    multiplies by p_virt/p_nominal (coupling proportional to the effective
    photoelasticity with all other device parameters held fixed, an
    extrapolation, not a device prediction) and ``p_nominal``, the positive
    finite yardstick of that ratio.  The constructor runs the sweep: the
    Miller ``chain`` and one SweepRow per power in ``rows`` are attributes
    that are no fields, so a ``replace`` runs it again.
    """

    def __init__(self, material: Material, bands: MixingBands, powers: tuple[float, ...],
                 mfd: float, n_mode: float, benchmark: CouplingBenchmark, p_nominal: float):
        _require(isinstance(material, Material), "material", "a Material", material)
        if not (powers := _reals(powers, "powers", (None,))):
            raise ValueError("power grid must not be empty")
        mfd = _mfd(mfd)
        p_limit = damage_limited_power(material, mfd)
        if min(powers) < 0 or max(powers) > 10.0 * p_limit:
            raise ValueError(
                f"power grid must lie within [0, {10.0 * p_limit:.6g}] W "
                f"(10x the damage-limited power for MFD {mfd:.3g} m)")
        _require(isinstance(benchmark, CouplingBenchmark), "benchmark",
                 "a CouplingBenchmark", benchmark)
        nominal = _real_in(p_nominal, "p_nominal", _POSITIVE)
        chain = second_order_photoelasticity(material, bands)
        n_mode = _reals(n_mode, "n_mode")       # its range: PumpGeometry's check
        eps_r, g0_ref = material.eps_r[bands.axes[2]], benchmark.g0_ref
        rows = []
        for p_w in powers:
            field = peak_field_from_power(PumpGeometry(p_w, mfd, n_mode))
            intensity = peak_intensity(p_w, mfd)
            p_virt = virtual_photoelasticity(chain.q_eff, eps_r, field)
            # p_nominal and g0_ref are positive, so each ratio is an exact 0
            # only when p_virt is.
            ratio = _result("p_virt_over_p_nominal", abs(p_virt) / nominal, not p_virt,
                            p_virt=p_virt, p_nominal=nominal)
            over = _over_threshold(intensity, material)
            g_scaled = _result("g_scaled", g0_ref * ratio, not ratio, g0_ref=g0_ref,
                               p_virt=p_virt, p_nominal=nominal)
            rows.append(SweepRow(p_w, field, intensity, p_virt, ratio, over, g_scaled))
        self.__dict__.update(material=material, bands=bands, powers=powers, mfd=mfd,
                             n_mode=n_mode, benchmark=benchmark, p_nominal=nominal,
                             chain=chain, rows=tuple(rows))

    @property
    def notes(self) -> tuple[str, ...]:
        """The caveats, from the benchmark the g_scaled column extrapolates."""
        return ("photoelastic entries are single-wavelength values applied to all bands",
                f"g_scaled extrapolates benchmark '{self.benchmark.label}' proportionally "
                "in p_virt/p_nominal; it is not a device prediction")

    def to_csv(self) -> str:
        return _csv(POWER_SWEEP_CSV_HEADER, (vars(r).values() for r in self.rows))

    def to_dict(self) -> dict:
        """JSON-ready structure carrying the chain, rows, and caveats."""
        return {
            "material": self.material.name,
            "chain": {
                "n_bands": list(self.chain.n_bands),
                "p_entries": list(self.chain.p_entries),
                "d_eff_m_per_v": self.chain.d_eff,
                "eta1_rel_bands": list(self.chain.eta1_rel_bands),
                "eta2": self.chain.eta2,
                "miller_Q": self.chain.Q,
                "q_eff_m2_per_c": self.chain.q_eff,
            },
            "p_nominal": self.p_nominal,
            "benchmark": {"g0_ref_rad_per_s": self.benchmark.g0_ref,
                          "label": self.benchmark.label},
            "rows": [dict(vars(r)) for r in self.rows],     # copies: a row is frozen
            "notes": list(self.notes),
        }


def _largest_entry(m: Material) -> float:
    """The largest measured photoelastic entry of ``m`` in magnitude, NaN if
    none is measured or ``m`` is no Material (DesignReport names either)."""
    rows = m.photoelastic.entries if isinstance(m, Material) else ()
    return max((abs(e) for row in rows for e in row if not math.isnan(e)), default=math.nan)


def power_sweep(m: Material, bands: MixingBands, powers, mfd: float,
                n_mode: float, benchmark: CouplingBenchmark | None = None,
                p_nominal: float | None = None) -> DesignReport:
    """Tabulate the virtual photoelasticity and derived scalings vs. power:
    the DesignReport of these arguments, with ``benchmark`` the piezo-
    optomechanical benchmark and ``p_nominal`` the largest measured
    photoelastic entry of the material, the natural yardstick of the
    p_virt/p_nominal column, when either is None."""
    return DesignReport(m, bands, powers, mfd, n_mode,
                        PIEZO_OPTOMECHANICAL_BENCHMARK if benchmark is None else benchmark,
                        _largest_entry(m) if p_nominal is None else p_nominal)
