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
operand order of their ``units.Quantity`` composition, so they give its bits;
the tests assert each composition's dimension.  Every public function reads
its float arguments with ``errors._reals``, the package's one rule for a
real argument, which names one that is no number.  The public chain steps
and second_order_photoelasticity then call the same private steps, which
take floats already read: the per-band terms 1/n^2 and 1 - 1/n^2, eta2, Q,
and the band sum with the closed-form q_eff.  Only damage_limited_power
still composes ``Quantity`` objects at run time (see its comment).  A result
that is not finite raises the ValueError of ``errors.non_finite_error``,
which names the inputs, so no infinity reaches a report.

Each band's photoelastic entry p[axis, axis; strain] is read as
``entries[axis][strain_voigt]``: in the Voigt order (00, 11, 22, 12, 02, 01)
a diagonal pair packs to its axis, so the chain needs no packing table, and
``tensors`` serves the material database alone.

A design's three band indices are looked up once: the chain and
phasematch's delta_k and poling_period read them through _band_indices,
which remembers the last bands and dispersion objects it was given.

A user's argument is still read once.  from_vacuum_wavelengths reads and
checks its wavelengths and phonon frequency, then passes the omegas it
computes to the constructor, the only gate of a MixingBands: a float comes
through ``errors._reals`` with one type test, and the constructor checks
its range, so it names an omega that overflows.  PumpGeometry reads ``mfd``
once, through the same _mfd check as the mode area.
"""

from __future__ import annotations

import math
import sys

from ._record import Record
from .errors import DataError, SingularityError, _integer, _reals, non_finite_error
from .materials import Material, refractive_index
from .units import (C_LIGHT, EPS0, METER, Quantity, TWO_PI, TWO_PI_C, WATT,
                    WATT_PER_M2)

# Published single-photon optomechanical coupling rates used as proportional-
# scaling anchors by power_sweep.  These are literature reference points, not
# outputs of this package; any column derived from them is an extrapolation.
G0_PIEZO_OPTOMECHANICAL_RAD_S = TWO_PI * 400.0      # integrated piezo-optomechanical transducer
G0_OPTOMECHANICAL_CRYSTAL_RAD_S = TWO_PI * 850.0e3  # high-coupling optomechanical crystal

_AXES, _INT3 = frozenset((0, 1, 2)), (int, int, int)


class MixingBands(Record):
    """The three optical bands and one acoustic band of the mixing process.

    Energy conservation fixes omega_t = omega_p1 + omega_p2 + omega_m; the
    constructor computes it rather than trusting a caller-supplied value.
    ``axes`` gives the polarization axis (0..2) of each band in the order
    (pump1, pump2, transduced); ``acoustic_mode`` keys the material's sound
    speed table and ``strain_voigt`` selects the strain column of the
    photoelastic tensors driven by that mode.
    """

    _computed = ("omega_t",)

    def __init__(self, omega_p1: float, omega_p2: float, omega_m: float,
                 axes: tuple[int, int, int] = (0, 1, 2),
                 acoustic_mode: str = "longitudinal", strain_voigt: int = 2):
        if not 0 < (w1 := _reals(omega_p1, "omega_p1")) < math.inf:
            raise ValueError(f"omega_p1 must be positive and finite, got {omega_p1}")
        if not 0 < (w2 := _reals(omega_p2, "omega_p2")) < math.inf:
            raise ValueError(f"omega_p2 must be positive and finite, got {omega_p2}")
        if not 0 <= (wm := _reals(omega_m, "omega_m")) < math.inf:
            raise ValueError(f"omega_m must be finite and >= 0, got {omega_m}")
        # Indices are stored as plain ints; a float or a bool is no index,
        # and a non-iterable is no triple of them.  A tuple of three plain
        # ints is kept as it is.
        if type(axes) is tuple and tuple(map(type, axes)) == _INT3:
            ints = axes
        else:
            try:
                ints = tuple(map(_integer, axes))
            except TypeError:
                ints = ()
        if len(ints) != 3 or not _AXES.issuperset(ints):
            raise ValueError(f"axes must be three indices in 0..2, got {axes}")
        if (sv := _integer(strain_voigt)) is None or not 0 <= sv <= 5:
            raise ValueError(f"strain_voigt must be in 0..5, got {strain_voigt}")
        if not isinstance(acoustic_mode, str):  # a key of the sound speed table
            raise ValueError(f"acoustic_mode must be a string, got {acoustic_mode}")
        wt = w1 + w2 + wm
        # wavelengths: the vacuum wavelengths (m) of (pump1, pump2, transduced).
        self.__dict__.update(
            omega_p1=w1, omega_p2=w2, omega_m=wm, axes=ints,
            acoustic_mode=acoustic_mode, strain_voigt=sv, omega_t=wt,
            wavelengths=(TWO_PI_C / w1, TWO_PI_C / w2, TWO_PI_C / wt))

    @classmethod
    def from_vacuum_wavelengths(cls, lambda_p1: float, lambda_p2: float,
                                phonon_hz: float, **kw) -> "MixingBands":
        """Build from pump vacuum wavelengths (m) and a phonon frequency (Hz);
        the constructor checks the omegas they give and names one that
        overflows."""
        l1, l2, hz = (_reals(lambda_p1, "lambda_p1"), _reals(lambda_p2, "lambda_p2"),
                      _reals(phonon_hz, "phonon_hz"))
        if not 0 < l1 < math.inf:
            raise ValueError(f"lambda_p1 must be a positive finite wavelength, got {lambda_p1}")
        if not 0 < l2 < math.inf:
            raise ValueError(f"lambda_p2 must be a positive finite wavelength, got {lambda_p2}")
        if not 0 <= hz < math.inf:
            raise ValueError(f"phonon_hz must be finite and >= 0, got {phonon_hz}")
        return cls(TWO_PI_C / l1, TWO_PI_C / l2, TWO_PI * hz, **kw)


class MillerChain(Record):
    """Every intermediate of the q_eff estimate, for reporting and audits."""

    def __init__(self, n_bands: tuple[float, float, float],
                 p_entries: tuple[float, float, float], d_eff: float,
                 eta1_rel_bands: tuple[float, float, float], eta2: float, Q: float,
                 q_eff: float):
        self.__dict__.update(n_bands=n_bands, p_entries=p_entries, d_eff=d_eff,
                             eta1_rel_bands=eta1_rel_bands, eta2=eta2, Q=Q, q_eff=q_eff)


_MIN_NORMAL, _MAX_FLOAT = sys.float_info.min, sys.float_info.max
_PerBand = tuple[float, float, float]     # (pump1, pump2, transduced)
_SQUARE_METER = METER * METER


def _check_power(power) -> float:
    if not 0 <= (p := _reals(power, "power")) < math.inf:
        raise ValueError(f"power must be finite and >= 0, got {power}")
    return p


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
        power, d = _check_power(power), _mfd(mfd)
        if not 0 < (n := _reals(n_mode, "n_mode")) < math.inf:
            raise ValueError(f"modal index must be positive, got {n_mode}")
        self.__dict__.update(power=power, mfd=d, n_mode=n)


class CouplingBenchmark(Record):
    """A published coupling rate against which scalings are expressed."""

    def __init__(self, g0_ref: float, label: str):     # g0_ref in rad/s
        if not 0 < (g := _reals(g0_ref, "g0_ref")) < math.inf:
            raise ValueError(f"g0_ref must be positive, got {g0_ref}")
        self.__dict__.update(g0_ref=g, label=label)


PIEZO_OPTOMECHANICAL_BENCHMARK = CouplingBenchmark(
    G0_PIEZO_OPTOMECHANICAL_RAD_S,
    "integrated piezo-optomechanical transducer, 2pi x 400 Hz (literature)")
OPTOMECHANICAL_CRYSTAL_BENCHMARK = CouplingBenchmark(
    G0_OPTOMECHANICAL_CRYSTAL_RAD_S,
    "optomechanical crystal device, 2pi x 850 kHz (literature)")


def _check_indices(ns: tuple[float, ...]) -> None:
    for n in ns:
        if not 1.0 <= n < math.inf:
            raise ValueError(f"refractive index must be finite and >= 1, got {n}")


def _read_indices(n1, n2, n3) -> _PerBand:
    """The indices given as ``n1``, ``n2`` and ``n3``, read as floats."""
    return tuple(map(_reals, (n1, n2, n3), ("n1", "n2", "n3")))


def _check_bands(ns, ps) -> tuple[_PerBand, _PerBand]:
    """Three indices and three photoelastic entries, one per band, read as
    floats; the indices checked."""
    ns, ps = _reals(ns, "ns", 1), _reals(ps, "ps", 1)
    for name, values in (("ns", ns), ("ps", ps)):
        if len(values) != 3:
            raise ValueError(f"{name} must hold 3 values, one per band, got {len(values)}")
    _check_indices(ns)
    return ns, ps


def eta1_rel(n: float) -> float:
    """Relative first-order inverse susceptibility eps0*eta1 = 1/n^2."""
    _check_indices((n := _reals(n, "n"),))
    return 1.0 / (n * n)


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
    if not math.isfinite(Q):
        n1, n2, n3 = ns
        raise non_finite_error("Miller Q", eta2=eta2, n1=n1, n2=n2, n3=n3)
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
    q_eff = -(2.0 * d_eff) / (EPS0 * (n1 * n1 * n2 * n2 * n3 * n3)) * _band_sum(ps, denoms)
    if not math.isfinite(q_eff):
        raise non_finite_error("q_eff", d_eff=d_eff, ns=ns, ps=ps)
    return q_eff


def eta2_from_deff(d_eff: float, n1: float, n2: float, n3: float) -> float:
    """Second-order inverse susceptibility from the tabulated d_eff.

    eta2 = 2 d_eff / (eps0^2 n1^2 n2^2 n3^2); linear in d_eff.
    """
    return _eta2(_reals(d_eff, "d_eff"), _read_indices(n1, n2, n3))


def _eta2(d_eff: float, ns: _PerBand) -> float:
    """eta2_from_deff for a d_eff and indices that are floats already."""
    if not math.isfinite(d_eff):
        raise ValueError("d_eff must be finite")
    _check_indices(ns)
    n1, n2, n3 = ns
    eta2 = (2.0 * d_eff) / (EPS0 * EPS0 * (n1 * n1 * n2 * n2 * n3 * n3))
    if not math.isfinite(eta2):
        raise non_finite_error("eta2", d_eff=d_eff, n1=n1, n2=n2, n3=n3)
    return eta2


def miller_Q(eta2: float, n1: float, n2: float, n3: float) -> float:
    """Miller proportionality constant Q = -eta2 / prod(1 - 1/n^2)."""
    ns = _read_indices(n1, n2, n3)
    first_bad = next((n for n in ns if not 1.0 < n < math.inf), 1.0)
    if first_bad != 1.0:        # a vacuum band first is singular (_band_terms)
        raise ValueError(f"refractive index must be finite and > 1, got {first_bad}")
    return _miller_Q(_reals(eta2, "eta2"), ns, _band_terms(ns, "Miller constant")[1])


def eta2_from_Q(Q: float, n1: float, n2: float, n3: float) -> float:
    """Inverse of miller_Q; round-trips to machine precision."""
    _check_indices(ns := _read_indices(n1, n2, n3))
    d1, d2, d3 = _band_terms(ns, None)[1]
    eta2 = -_reals(Q, "Q") * (d1 * d2 * d3)
    if not math.isfinite(eta2):     # each factor lies in [0, 1], so Q is named
        raise non_finite_error("eta2", Q=Q, n1=n1, n2=n2, n3=n3)
    return eta2


def q_eff_from_eta2(eta2: float, ns: tuple[float, float, float],
                    ps: tuple[float, float, float]) -> float:
    """Susceptibility route: q = -eps0 * eta2 * sum_n p_n / (1 - eps0*eta1_n)."""
    eta2, (ns, ps) = _reals(eta2, "eta2"), _check_bands(ns, ps)
    q_eff = -(EPS0 * eta2) * _band_sum(ps, _band_terms(ns, "q_eff")[1])
    if not math.isfinite(q_eff):
        raise non_finite_error("q_eff", eta2=eta2, ns=ns, ps=ps)
    return q_eff


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


# The last design's indices, (bands, dispersion, (n_p1, n_p2, n_t)): one
# tuple, so a reader in another thread sees a whole entry or none.
_last_indices: tuple = (None, None, ())


def _band_indices(m: Material, bands: MixingBands) -> _PerBand:
    """(n_p1, n_p2, n_t): the index of each band at its axis, looked up in
    band order, or taken from the last call if it had the same ``bands`` and
    ``m.dispersion`` objects (both frozen, so the floats are the same).

    The entry holds both objects, so their ids cannot be reused while it is
    stored; a lookup that raises stores nothing.
    """
    global _last_indices
    last_bands, last_dispersion, ns = _last_indices
    if bands is not last_bands or m.dispersion is not last_dispersion:
        (l1, l2, l3), (a1, a2, a3) = bands.wavelengths, bands.axes
        ns = (refractive_index(m, l1, a1), refractive_index(m, l2, a2),
              refractive_index(m, l3, a3))
        _last_indices = (bands, m.dispersion, ns)
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
    ns = _band_indices(m, bands)
    ps = []
    for axis in bands.axes:
        # The pair (axis, axis) packs to ``axis``, and MixingBands stores its
        # axes as ints in 0..2, so the axis is the row.
        entry = m.photoelastic.entries[axis][bands.strain_voigt]
        if math.isnan(entry):
            raise DataError(
                f"material '{m.name}' has no photoelastic entry "
                f"[{axis}][{bands.strain_voigt}] (axis {axis}, strain column "
                f"{bands.strain_voigt}) required by these bands")
        ps.append(entry)
    ps = tuple(ps)
    d_eff = m.d_eff * (qpm_deff_reduction(m.qpm_order) if apply_qpm_reduction else 1.0)
    # _eta2 rejects a non-finite d_eff and n < 1, then a vacuum band is
    # singular; q_eff is checked before Q, so an input whose q_eff overflows
    # too is named by q_eff.
    eta2 = _eta2(d_eff, ns)
    eta1s, denoms = _band_terms(ns, "Miller constant")
    q_eff = _q_eff_closed_form(d_eff, ns, ps, denoms)
    return MillerChain(ns, ps, d_eff, eta1s, eta2, _miller_Q(eta2, ns, denoms), q_eff)


def peak_field_from_power(g: PumpGeometry) -> float:
    """Average peak field |E| = sqrt(16 P / (n pi eps0 c MFD^2)), in V/m."""
    denom = g.n_mode * math.pi * EPS0 * C_LIGHT * g.mfd * g.mfd
    field = math.sqrt(16.0 * g.power / denom) if 0 < denom < math.inf else math.inf
    if not math.isfinite(field):
        raise non_finite_error("peak field", power=g.power, mfd=g.mfd, n_mode=g.n_mode)
    return field


def peak_intensity(power: float, mfd: float) -> float:
    """Top-hat intensity P / (pi (MFD/2)^2), in W/m^2."""
    intensity = _check_power(power) / _mode_area(mfd)
    if not math.isfinite(intensity):
        raise non_finite_error("peak intensity", power=power, mfd=mfd)
    return intensity


def damage_limited_power(m: Material, mfd: float) -> float:
    """Largest power (W) keeping the peak intensity at the damage threshold."""
    # The last runtime Quantity composition: the traced benchmark's
    # units.quantities_per_point (bench/worker.py, grid_metrics) indexes each
    # power sweep's Quantity count by key, so a sweep must build one.  This
    # moves to floats once that read is .get(QUANTITY, 0).
    power = (Quantity(m.damage_threshold, WATT_PER_M2)
             * Quantity(_mode_area(mfd), _SQUARE_METER)).expect(WATT, "power")
    if not math.isfinite(power):
        raise non_finite_error("damage-limited power",
                               damage_threshold=m.damage_threshold, mfd=mfd)
    return power


def virtual_photoelasticity(q_eff: float, eps_r: float, field: float) -> float:
    """Virtual first-order photoelasticity p_virt = (2/3) eps0 q_eff eps_r |E|.

    ``field`` is the pump field magnitude (V/m, >= 0); the result is
    dimensionless and carries the sign of q_eff.
    """
    if not math.isfinite(q := _reals(q_eff, "q_eff")):
        raise ValueError(f"q_eff must be finite, got {q_eff}")
    if not math.isfinite(e := _reals(eps_r, "eps_r")):
        raise ValueError(f"eps_r must be finite, got {eps_r}")
    if not 0 <= (f := _reals(field, "field")) < math.inf:
        raise ValueError(f"field magnitude must be finite and >= 0, got {field}")
    return (2.0 / 3.0) * EPS0 * q * e * f


def interaction_density_3wm(p_eff: float, d1: float, d2: float, x: float) -> float:
    """Three-wave interaction energy density (1/(2 eps0)) p d1 d2 x, J/m^3."""
    u = math.prod(map(_reals, (p_eff, d1, d2, x), ("p_eff", "d1", "d2", "x"))) / (2.0 * EPS0)
    if not math.isfinite(u):
        raise non_finite_error("interaction density", p_eff=p_eff, d1=d1, d2=d2, x=x)
    return u


def interaction_density_4wm(q_eff: float, dp: float, d1: float, d2: float,
                            x: float) -> float:
    """Four-wave interaction energy density (1/(3 eps0)) q dp d1 d2 x, J/m^3.

    Grouping the pump displacement with q reduces this to the three-wave form:
    interaction_density_4wm(q, dp, d1, d2, x)
        == interaction_density_3wm((2/3) q dp, d1, d2, x)
    exactly, which is the algebraic content of the virtual photoelasticity.
    """
    u = math.prod(map(_reals, (q_eff, dp, d1, d2, x),
                      ("q_eff", "dp", "d1", "d2", "x"))) / (3.0 * EPS0)
    if not math.isfinite(u):
        raise non_finite_error("interaction density",
                               q_eff=q_eff, dp=dp, d1=d1, d2=d2, x=x)
    return u


class SweepRow(Record):
    """One power grid point of a pump sweep (all SI)."""

    def __init__(self, power_w: float, peak_field_v_per_m: float,
                 intensity_w_per_m2: float, p_virt: float, p_virt_over_p_nominal: float,
                 intensity_over_threshold: float, g_scaled_rad_per_s: float):
        self.__dict__.update(
            power_w=power_w, peak_field_v_per_m=peak_field_v_per_m,
            intensity_w_per_m2=intensity_w_per_m2, p_virt=p_virt,
            p_virt_over_p_nominal=p_virt_over_p_nominal,
            intensity_over_threshold=intensity_over_threshold,
            g_scaled_rad_per_s=g_scaled_rad_per_s)


POWER_SWEEP_CSV_HEADER = ("power_w,peak_field_v_per_m,intensity_w_per_m2,p_virt,"
                          "p_virt_over_p_nominal,intensity_over_threshold,"
                          "g_scaled_extrapolated_rad_per_s")


class DesignReport(Record):
    """Sweep output bundle: chain, rows, and the caveats that qualify them."""

    def __init__(self, material: str, chain: MillerChain, p_nominal: float,
                 benchmark: CouplingBenchmark, rows: tuple[SweepRow, ...],
                 notes: tuple[str, ...]):
        self.__dict__.update(material=material, chain=chain, p_nominal=p_nominal,
                             benchmark=benchmark, rows=rows, notes=notes)

    def to_csv(self) -> str:
        lines = [POWER_SWEEP_CSV_HEADER]
        for r in self.rows:
            lines.append(",".join(repr(v) for v in vars(r).values()))
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        """JSON-ready structure carrying the chain, rows, and caveats."""
        return {
            "material": self.material,
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


def power_sweep(m: Material, bands: MixingBands, powers, mfd: float,
                n_mode: float, benchmark: CouplingBenchmark | None = None,
                p_nominal: float | None = None) -> DesignReport:
    """Tabulate the virtual photoelasticity and derived scalings vs. power.

    ``powers`` is a nonempty grid of pump powers (W) within ten times the
    damage-limited power for this geometry.  ``p_nominal`` defaults to the
    largest photoelastic entry of the material, the natural yardstick for the
    p_virt/p_nominal column, and must be positive and finite.  The g_scaled
    column multiplies the benchmark coupling by p_virt/p_nominal (coupling
    proportional to the effective photoelasticity with all other device
    parameters held fixed) and is an extrapolation, not a device prediction.
    """
    powers = _reals(powers, "powers", 1)
    if not powers:
        raise ValueError("power grid must not be empty")
    p_limit = damage_limited_power(m, mfd)
    if min(powers) < 0 or max(powers) > 10.0 * p_limit:
        raise ValueError(
            f"power grid must lie within [0, {10.0 * p_limit:.6g}] W "
            f"(10x the damage-limited power for MFD {mfd:.3g} m)")
    if benchmark is None:
        benchmark = PIEZO_OPTOMECHANICAL_BENCHMARK
    if p_nominal is None:
        p_nominal = max((abs(e) for row in m.photoelastic.entries for e in row
                         if not math.isnan(e)), default=math.nan)
    if not 0 < (nominal := _reals(p_nominal, "p_nominal")) < math.inf:
        raise ValueError(
            f"p_nominal must be positive and finite to form ratios, got {p_nominal}")

    chain = second_order_photoelasticity(m, bands)
    eps_r = m.eps_r[bands.axes[2]]
    threshold = m.damage_threshold
    rows = []
    for p_w in powers:
        field = peak_field_from_power(PumpGeometry(p_w, mfd, n_mode))
        intensity = peak_intensity(p_w, mfd)
        p_virt = virtual_photoelasticity(chain.q_eff, eps_r, field)
        ratio = abs(p_virt) / nominal
        g_scaled = benchmark.g0_ref * ratio
        if not math.isfinite(g_scaled):
            raise non_finite_error("g_scaled", g0_ref=benchmark.g0_ref,
                                   p_virt=p_virt, p_nominal=nominal)
        rows.append(SweepRow(
            power_w=p_w,
            peak_field_v_per_m=field,
            intensity_w_per_m2=intensity,
            p_virt=p_virt,
            p_virt_over_p_nominal=ratio,
            intensity_over_threshold=intensity / threshold,
            g_scaled_rad_per_s=g_scaled,
        ))
    notes = (
        "photoelastic entries are single-wavelength values applied to all bands",
        f"g_scaled extrapolates benchmark '{benchmark.label}' proportionally "
        "in p_virt/p_nominal; it is not a device prediction",
    )
    return DesignReport(material=m.name, chain=chain, p_nominal=nominal,
                        benchmark=benchmark, rows=tuple(rows), notes=notes)
