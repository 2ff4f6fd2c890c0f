"""Phase mismatch, quasi-phase-matching design, and conversion efficiency.

Propagation is collinear along z.  The four-wave mismatch is

    delta_k = k_t - k_p1 - k_p2 - k_m - poling_sign * 2 pi / Lambda

with optical wavevectors n(omega) omega / c, the acoustic wavevector
omega_m / v_s (linear acoustic dispersion), and the poling term absent when
no grating is specified.  The poling solver picks (Lambda, sign) so that the
grating's first diffraction order cancels the unpoled mismatch; a physical
grating carries both +-1 orders, so either sign is realizable.

Normalized conversion efficiency over a length L is sinc^2(delta_k L / 2),
the squared magnitude of (1/L) integral_0^L exp(i delta_k z) dz.  Absolute
coupling prefactors live in the estimator module.

The competing three-wave process (one pump plus the phonon) is evaluated
under the same material, geometry, and poling vector; because its generated
band sits at a very different wavelength than the four-wave output, a
dispersive medium cannot phase-match both at once and the three-wave channel
is suppressed by the same sinc^2 factor.

Each result is a record built from its input.  ``PhaseMatchResult(pm_in)``
evaluates the four-wave mismatch and ``ThreeWaveResidual(pm_in,
pump_choice)`` the three-wave one; each stores what it is given and derives
every value it reports as an attribute that is no field, so a ``replace``
evaluates them again and no value can go stale.  delta_k and
three_wave_residual are functions of one call to those constructors, so a
caller can wrap and time them as functions.  Both records hold a
PhaseMatchInput, and with it a Material, so, like it, neither is hashable.
PhaseMatchInput checks that its bands are a MixingBands and its material a
Material, and names either if it is not.

wavevector_optical, wavevector_acoustic and pm_efficiency read their
arguments with ``errors._reals`` and call private float forms, which the two
records and poling_period call directly on the floats of the design, so a
design reads each float once.  The float forms compare their arguments
inline and call ``errors._real_in``, the package's one range rule, only to
name one out of range; pm_efficiency and PhaseMatchInput's ``length`` go
through it directly.  Both wavevectors pass the result rule of
``errors._result``: one that overflows or underflows raises a ValueError
naming the inputs, and k_m is an exact 0 only with no phonon.  Only the
intermediate delta_k * length of _sinc2 is checked here, with
``errors.result_error``.  The two records, delta_k, poling_period,
three_wave_residual and sweep name a ``pm_in`` that is no PhaseMatchInput.

PhaseMatchResult and poling_period take the three four-wave band indices
from ``estimator._band_indices``, so a design that ran the Miller chain on
the same bands and material reuses its lookups, and a poling-period sweep
looks them up once.  They share the four wavevectors too: _k_bare keeps
(k_t, k_p1, k_p2, k_m) on the bands, keyed on the material.
ThreeWaveResidual takes its pump and phonon wavevectors from that entry
when it holds the same material, and looks up only its omega_p + omega_m
band; otherwise it looks up its pump as well.  It never looks up the
four-wave output, so it works for a design whose four-wave output lies
outside the validity window.  A design makes 5 index lookups and 5 optical
wavevector evaluations, also when its calls alternate with another's.

PhaseMatchInput stores the signed grating term, poling_sign * 2 pi / Lambda
(0.0 without a grating), from the 2 pi / Lambda it computes to check Lambda;
both records read it, and neither computes it again.

sweep_to_csv writes a sweep's (value, result) pairs through
``estimator._csv``, the writer of the power sweep's CSV too, so both sweep
CSVs have one format: a header line, then each row's values as ``repr``s
joined by commas.
"""

from __future__ import annotations

import math
from operator import attrgetter

from ._record import Record
from .errors import (_AT_LEAST_ONE, _FINITE, _MIN_NORMAL, _NON_NEGATIVE, _POSITIVE, DataError,
                     _integer, _real_in, _reals, _require, _result, result_error)
from .estimator import MixingBands, _band_indices, _csv
from .materials import Material, refractive_index
from .units import C_LIGHT, TWO_PI, TWO_PI_C


def wavevector_optical(n: float, omega: float) -> float:
    """Optical wavevector n * omega / c (rad/m)."""
    return _optical_k(_reals(n, "n"), _reals(omega, "omega"))


def _optical_k(n: float, omega: float) -> float:
    """wavevector_optical for an index and a frequency that are floats."""
    if not (1.0 <= n < math.inf and 0 < omega < math.inf):
        _real_in(n, "n", _AT_LEAST_ONE)
        _real_in(omega, "omega", _POSITIVE)
    k = n * omega / C_LIGHT
    if not _MIN_NORMAL <= abs(k) < math.inf:
        _result("optical wavevector", k, False, n=n, omega=omega)
    return k


def wavevector_acoustic(omega_m: float, v_s: float) -> float:
    """Acoustic wavevector omega_m / v_s (rad/m), linear dispersion."""
    return _acoustic_k(_reals(omega_m, "omega_m"), _reals(v_s, "v_s"))


def _acoustic_k(omega_m: float, v_s: float) -> float:
    """wavevector_acoustic for a frequency and a sound speed that are floats."""
    if not (0 < v_s < math.inf and 0 <= omega_m < math.inf):
        _real_in(v_s, "v_s", _POSITIVE)
        _real_in(omega_m, "omega_m", _NON_NEGATIVE)
    k_m = omega_m / v_s
    if not _MIN_NORMAL <= abs(k_m) < math.inf:
        _result("acoustic wavevector", k_m, not omega_m, omega_m=omega_m, v_s=v_s)
    return k_m


class PhaseMatchInput(Record):
    """Bands, material, interaction length (m), and optional poling grating."""

    def __init__(self, bands: MixingBands, material: Material, length: float,
                 poling_period: float | None = None, poling_sign: int = 1):
        _require(isinstance(bands, MixingBands), "bands", "a MixingBands", bands)
        _require(isinstance(material, Material), "material", "a Material", material)
        L = _real_in(length, "length", _POSITIVE)
        period = None if poling_period is None else _reals(poling_period, "poling_period")
        if period is not None and not period > 0:
            raise ValueError(f"poling period must be positive, got {poling_period}")
        # An infinite period would drop the grating, a subnormal one overflow it.
        if period is not None and not 0 < (k := TWO_PI / period) < math.inf:
            raise ValueError("poling period must be finite, with a finite 2 pi / period, "
                             f"got {poling_period}")
        if (sign := _integer(poling_sign)) not in (-1, 1):
            raise ValueError(f"poling sign must be +-1, got {poling_sign}")
        # _k_grating: the signed grating term of the mismatch, 0.0 without a grating.
        self.__dict__.update(bands=bands, material=material, length=L,
                             poling_period=period, poling_sign=sign,
                             _k_grating=0.0 if period is None else sign * k)


def _k_acoustic(pm_in: PhaseMatchInput) -> float:
    """The acoustic wavevector of the input's phonon mode."""
    m, mode = pm_in.material, pm_in.bands.acoustic_mode
    if mode not in m.v_sound:
        have = ", ".join(sorted(m.v_sound)) or "<none>"
        raise DataError(
            f"material '{m.name}' has no sound speed for acoustic mode "
            f"'{mode}' (have: {have})")
    return _acoustic_k(pm_in.bands.omega_m, m.v_sound[mode])


def _k_bare(pm_in: PhaseMatchInput) -> tuple[float, float, float, float]:
    """(k_t, k_p1, k_p2, k_m): the four-wave wavevectors without the grating,
    computed in band order, or taken from ``bands._wavevectors`` if it holds
    the input's material (both frozen, so the floats are the same).  The
    key is the material, not its dispersion: k_m depends on the sound speed
    too.  A computation that raises stores nothing.
    """
    if not isinstance(pm_in, PhaseMatchInput):     # inline: no call on a design's path
        _require(False, "pm_in", "a PhaseMatchInput", pm_in)
    b, m = pm_in.bands, pm_in.material
    material, ks = b._wavevectors
    if material is not m:
        n_p1, n_p2, n_t = _band_indices(m, b)
        k_p1, k_p2 = _optical_k(n_p1, b.omega_p1), _optical_k(n_p2, b.omega_p2)
        ks = (_optical_k(n_t, b.omega_t), k_p1, k_p2, _k_acoustic(pm_in))
        b.__dict__["_wavevectors"] = (m, ks)
    return ks


def pm_efficiency(delta_k: float, length: float) -> float:
    """Normalized phase-matching efficiency sinc^2(delta_k * length / 2).

    Equals 1 exactly at delta_k = 0 (removable singularity) and is an even
    function of delta_k bounded by 1/(delta_k L / 2)^2.  The arithmetic is
    np.sinc's, on one float: x = u/pi, y = pi*x with 1e-20 standing in for
    x = 0, sin(y)/y.
    """
    return _sinc2(_real_in(delta_k, "delta_k", _FINITE), _real_in(length, "length", _POSITIVE))


def _sinc2(delta_k: float, length: float) -> float:
    """pm_efficiency for a mismatch and a positive finite length that are
    floats.  A mismatch that is not finite makes x not finite, and
    result_error then names it."""
    x = delta_k * length / 2.0 / math.pi
    if not math.isfinite(x):
        raise result_error("delta_k * length", x, delta_k=delta_k, length=length)
    y = math.pi * (x if x != 0 else 1.0e-20)
    return (math.sin(y) / y) ** 2


class PhaseMatchResult(Record):
    """The four-wave mismatch of ``pm_in`` and its components (rad/m).

    The constructor evaluates them as attributes that are no fields, so a
    ``replace(pm_in=...)`` evaluates them again: ``k_t``, ``k_p1``, ``k_p2``
    and ``k_m`` from _k_bare, ``k_poling``, the signed grating term (0 when
    there is no grating), ``delta_k = k_t - k_p1 - k_p2 - k_m - k_poling``
    and ``efficiency``, sinc^2(delta_k L / 2), in [0, 1].
    """

    def __init__(self, pm_in: PhaseMatchInput):
        k_t, k_p1, k_p2, k_m = _k_bare(pm_in)
        k_pol = pm_in._k_grating
        dk = k_t - k_p1 - k_p2 - k_m - k_pol
        self.__dict__.update(pm_in=pm_in, k_t=k_t, k_p1=k_p1, k_p2=k_p2, k_m=k_m,
                             k_poling=k_pol, delta_k=dk, efficiency=_sinc2(dk, pm_in.length))


def delta_k(pm_in: PhaseMatchInput) -> PhaseMatchResult:
    """Evaluate the four-wave mismatch and its components for ``pm_in``."""
    return PhaseMatchResult(pm_in)


def poling_period(pm_in: PhaseMatchInput) -> tuple[float, int] | None:
    """Solve for the grating (Lambda, sign) that cancels the unpoled mismatch.

    Returns None when the process is already phase matched (a distinguished
    no-poling-needed outcome, not an error).  Any poling on the input is
    ignored; the solve always starts from the bare mismatch, which must be
    finite, as in :func:`delta_k`.
    """
    k_t, k_p1, k_p2, k_m = _k_bare(pm_in)
    dk0 = k_t - k_p1 - k_p2 - k_m
    if not math.isfinite(dk0):
        _real_in(dk0, "delta_k", _FINITE)
    if dk0 == 0.0:
        return None
    sign = 1 if dk0 > 0 else -1
    return TWO_PI / abs(dk0), sign


class ThreeWaveResidual(Record):
    """Mismatch of the competing three-wave process under a fixed grating.

    Pump ``pump_choice`` (1 or 2) drives the three-wave channel at
    omega_t3 = omega_pump + omega_m, with the geometry and any grating of
    ``pm_in``, configured for the four-wave process; the grating enters with
    the sign convention of :class:`PhaseMatchResult`.  The constructor
    derives, as attributes that are no fields, ``delta_k_3wm`` (rad/m), its
    ``suppression``, the pm_efficiency of the channel, and ``phase_matched``:
    True, a degenerate configuration that reports call out, when the
    suppression is within 1e-12 of 1 (a zero mismatch has suppression 1).
    """

    def __init__(self, pm_in: PhaseMatchInput, pump_choice: int = 1):
        if not isinstance(pm_in, PhaseMatchInput):
            _require(False, "pm_in", "a PhaseMatchInput", pm_in)
        if (pump := _integer(pump_choice)) not in (1, 2):
            raise ValueError(f"pump_choice must be 1 or 2, got {pump_choice}")
        b, m = pm_in.bands, pm_in.material
        material, ks = b._wavevectors
        # The pump and phonon wavevectors come from _k_bare's entry when it
        # holds this material (ks is (k_t, k_p1, k_p2, k_m)); else they are
        # computed here, pump first and phonon last, so a failing design
        # raises the same error.
        hit = material is m
        omega_p = b.omega_p1 if pump == 1 else b.omega_p2
        k_p = ks[pump] if hit else _optical_k(
            refractive_index(m, b.wavelengths[pump - 1], b.axes[pump - 1]), omega_p)
        omega_t3 = omega_p + b.omega_m
        k_t3 = _optical_k(refractive_index(m, TWO_PI_C / omega_t3, b.axes[2]), omega_t3)
        dk3 = k_t3 - k_p - (ks[3] if hit else _k_acoustic(pm_in)) - pm_in._k_grating
        suppression = _sinc2(dk3, pm_in.length)
        self.__dict__.update(pm_in=pm_in, pump_choice=pump, delta_k_3wm=dk3,
                             suppression=suppression,
                             phase_matched=suppression > 1.0 - 1e-12)


def three_wave_residual(pm_in: PhaseMatchInput,
                        pump_choice: int = 1) -> ThreeWaveResidual:
    """Mismatch and suppression of single-pump three-wave mixing when the
    geometry (and any poling) is configured for the four-wave process."""
    return ThreeWaveResidual(pm_in, pump_choice)


def sweep(pm_in: PhaseMatchInput, variable: str, values) -> list[tuple[float, PhaseMatchResult]]:
    """Re-evaluate delta_k over a grid of one design variable.

    ``variable`` is ``"pump-wavelength"`` (m) or ``"poling-period"`` (m).
    A pump-wavelength value sets both pumps to it, so that sweep runs over
    degenerate designs even when the two pumps of ``pm_in`` differ: it keeps
    the phonon (``omega_m`` itself, bit for bit), axes, acoustic mode and
    strain column of ``pm_in.bands``, the material, the length and the
    grating, but neither pump wavelength.  ``values`` is a nonempty grid.
    Returns (value, result) pairs in grid order; evaluations are
    independent, so order is deterministic.  Any other ``variable`` raises
    ValueError, even with an empty grid, and is named before the grid is
    read.
    """
    _require(isinstance(pm_in, PhaseMatchInput), "pm_in", "a PhaseMatchInput", pm_in)
    b, m, length, sign = pm_in.bands, pm_in.material, pm_in.length, pm_in.poling_sign
    if variable == "pump-wavelength":
        def probe(v: float) -> PhaseMatchInput:
            # from_vacuum_wavelengths' check and message; the bands take
            # omega_m itself, which a round trip through Hz can round.
            w = TWO_PI_C / _real_in(v, "lambda_p1", _POSITIVE)
            bands = MixingBands(w, w, b.omega_m, b.axes, b.acoustic_mode, b.strain_voigt)
            return PhaseMatchInput(bands, m, length, pm_in.poling_period, sign)
    elif variable == "poling-period":
        def probe(v: float) -> PhaseMatchInput:
            return PhaseMatchInput(b, m, length, v, sign)
    else:
        raise ValueError(
            f"variable must be 'pump-wavelength' or 'poling-period', got {variable!r}")
    if not (grid := _reals(values, "values", (None,))):
        raise ValueError("values must not be empty")
    return [(v, delta_k(probe(v))) for v in grid]


PHASEMATCH_SWEEP_CSV_HEADER = (
    "sweep_value,k_t_rad_per_m,k_p1_rad_per_m,k_p2_rad_per_m,"
    "k_m_rad_per_m,k_poling_rad_per_m,delta_k_rad_per_m,efficiency")


_COLUMNS = attrgetter("k_t", "k_p1", "k_p2", "k_m", "k_poling", "delta_k", "efficiency")


def sweep_to_csv(rows: list[tuple[float, PhaseMatchResult]]) -> str:
    return _csv(PHASEMATCH_SWEEP_CSV_HEADER, ((v, *_COLUMNS(r)) for v, r in rows))
