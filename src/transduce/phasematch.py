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

wavevector_optical, wavevector_acoustic and pm_efficiency read their
arguments with ``errors._reals`` and call private float forms, which delta_k,
poling_period and three_wave_residual call directly on the floats of the
design, so a design reads each float once.

delta_k and poling_period take the three four-wave band indices from
``estimator._band_indices``, so a design that ran the Miller chain on the
same bands and material reuses its lookups, and a poling-period sweep looks
them up once.  They share the four wavevectors too: _k_bare remembers the
last (bands, material) pair and its (k_t, k_p1, k_p2, k_m), so a design
evaluates them once.  three_wave_residual takes its pump and phonon
wavevectors from that entry when it holds the same design, and looks up
only its omega_p + omega_m band; otherwise it looks up its pump as well.  It
never looks up the four-wave output, so it works for a design whose
four-wave output lies outside the validity window.  A design makes 5 index
lookups and 5 optical wavevector evaluations.
"""

from __future__ import annotations

import math

from ._record import Record
from .errors import DataError, _integer, _reals, non_finite_error
from .estimator import MixingBands, _band_indices
from .materials import Material, refractive_index
from .units import C_LIGHT, TWO_PI, TWO_PI_C


def wavevector_optical(n: float, omega: float) -> float:
    """Optical wavevector n * omega / c (rad/m)."""
    return _optical_k(_reals(n, "n"), _reals(omega, "omega"))


def _optical_k(n: float, omega: float) -> float:
    """wavevector_optical for an index and a frequency that are floats."""
    if not 1.0 <= n < math.inf:
        raise ValueError(f"refractive index must be finite and >= 1, got {n}")
    if not 0 < omega < math.inf:
        raise ValueError(
            f"optical angular frequency must be positive and finite, got {omega}")
    k = n * omega / C_LIGHT
    if not k < math.inf:
        raise non_finite_error("optical wavevector", n=n, omega=omega)
    return k


def wavevector_acoustic(omega_m: float, v_s: float) -> float:
    """Acoustic wavevector omega_m / v_s (rad/m), linear dispersion."""
    return _acoustic_k(_reals(omega_m, "omega_m"), _reals(v_s, "v_s"))


def _acoustic_k(omega_m: float, v_s: float) -> float:
    """wavevector_acoustic for a frequency and a sound speed that are floats."""
    if not 0 < v_s < math.inf:
        raise ValueError(f"sound speed must be positive and finite, got {v_s}")
    if not 0 <= omega_m < math.inf:
        raise ValueError(
            f"phonon angular frequency must be finite and >= 0, got {omega_m}")
    k_m = omega_m / v_s
    if not k_m < math.inf:
        raise non_finite_error("acoustic wavevector", omega_m=omega_m, v_s=v_s)
    return k_m


class PhaseMatchInput(Record):
    """Bands, material, interaction length (m), and optional poling grating."""

    def __init__(self, bands: MixingBands, material: Material, length: float,
                 poling_period: float | None = None, poling_sign: int = 1):
        if not 0 < (L := _reals(length, "length")) < math.inf:
            raise ValueError(f"interaction length must be positive, got {length}")
        period = None if poling_period is None else _reals(poling_period, "poling_period")
        if period is not None and not period > 0:
            raise ValueError(f"poling period must be positive, got {poling_period}")
        # An infinite period would drop the grating, a subnormal one overflow it.
        if period is not None and not 0 < TWO_PI / period < math.inf:
            raise ValueError("poling period must be finite, with a finite 2 pi / period, "
                             f"got {poling_period}")
        if (sign := _integer(poling_sign)) not in (-1, 1):
            raise ValueError(f"poling sign must be +-1, got {poling_sign}")
        self.__dict__.update(bands=bands, material=material, length=L,
                             poling_period=period, poling_sign=sign)


class PhaseMatchResult(Record):
    """All wavevector components of one mismatch evaluation (rad/m).

    ``k_poling`` is 0 when there is no grating; ``efficiency`` is
    sinc^2(delta_k L / 2), in [0, 1].
    """

    def __init__(self, k_t: float, k_p1: float, k_p2: float, k_m: float,
                 k_poling: float, delta_k: float, efficiency: float):
        self.__dict__.update(k_t=k_t, k_p1=k_p1, k_p2=k_p2, k_m=k_m, k_poling=k_poling,
                             delta_k=delta_k, efficiency=efficiency)


def _k_acoustic(pm_in: PhaseMatchInput) -> float:
    """The acoustic wavevector of the input's phonon mode."""
    m, mode = pm_in.material, pm_in.bands.acoustic_mode
    if mode not in m.v_sound:
        have = ", ".join(sorted(m.v_sound)) or "<none>"
        raise DataError(
            f"material '{m.name}' has no sound speed for acoustic mode "
            f"'{mode}' (have: {have})")
    return _acoustic_k(pm_in.bands.omega_m, m.v_sound[mode])


def _k_grating(pm_in: PhaseMatchInput) -> float:
    """The signed grating term, 0 without a grating."""
    if pm_in.poling_period is None:
        return 0.0
    return pm_in.poling_sign * TWO_PI / pm_in.poling_period


# The last design's wavevectors, (bands, material, (k_t, k_p1, k_p2, k_m)):
# one tuple, so a reader in another thread sees a whole entry or none.
_last_k: tuple = (None, None, ())


def _k_bare(pm_in: PhaseMatchInput) -> tuple[float, float, float, float]:
    """(k_t, k_p1, k_p2, k_m): the four-wave wavevectors without the grating,
    computed in band order, or taken from the last call if it had the same
    ``bands`` and ``material`` objects (both frozen, so the floats are the
    same).  The key is the material, not its dispersion: k_m depends on the
    sound speed too.

    The entry holds both objects, so their ids cannot be reused while it is
    stored; a computation that raises stores nothing.
    """
    global _last_k
    b, m = pm_in.bands, pm_in.material
    last_bands, last_material, ks = _last_k
    if b is not last_bands or m is not last_material:
        n_p1, n_p2, n_t = _band_indices(m, b)
        k_p1 = _optical_k(n_p1, b.omega_p1)
        k_p2 = _optical_k(n_p2, b.omega_p2)
        ks = (_optical_k(n_t, b.omega_t), k_p1, k_p2, _k_acoustic(pm_in))
        _last_k = (b, m, ks)
    return ks


def pm_efficiency(delta_k: float, length: float) -> float:
    """Normalized phase-matching efficiency sinc^2(delta_k * length / 2).

    Equals 1 exactly at delta_k = 0 (removable singularity) and is an even
    function of delta_k bounded by 1/(delta_k L / 2)^2.  The arithmetic is
    np.sinc's, on one float: x = u/pi, y = pi*x with 1e-20 standing in for
    x = 0, sin(y)/y.
    """
    dk, L = _reals(delta_k, "delta_k"), _reals(length, "length")
    if not math.isfinite(dk):
        raise ValueError(f"delta_k must be finite, got {dk}")
    if not (L > 0 and math.isfinite(L)):
        raise ValueError(f"length must be positive and finite, got {L}")
    return _sinc2(dk, L)


def _sinc2(delta_k: float, length: float) -> float:
    """pm_efficiency for a mismatch and a positive finite length that are
    floats.  A mismatch that is not finite makes x not finite, and
    non_finite_error then names it."""
    x = delta_k * length / 2.0 / math.pi
    if not math.isfinite(x):
        raise non_finite_error("delta_k * length", delta_k=delta_k, length=length)
    y = math.pi * (x if x != 0 else 1.0e-20)
    return (math.sin(y) / y) ** 2


def delta_k(pm_in: PhaseMatchInput) -> PhaseMatchResult:
    """Evaluate the four-wave mismatch and its components for ``pm_in``."""
    k_t, k_p1, k_p2, k_m = _k_bare(pm_in)
    k_pol = _k_grating(pm_in)
    dk = k_t - k_p1 - k_p2 - k_m - k_pol
    return PhaseMatchResult(k_t, k_p1, k_p2, k_m, k_pol, dk, _sinc2(dk, pm_in.length))


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
        raise ValueError(f"delta_k must be finite, got {dk0}")
    if dk0 == 0.0:
        return None
    sign = 1 if dk0 > 0 else -1
    return TWO_PI / abs(dk0), sign


class ThreeWaveResidual(Record):
    """Mismatch of the competing three-wave process under a fixed grating.

    ``suppression`` is the pm_efficiency of the 3WM channel; a True
    ``phase_matched`` flags a degenerate configuration.
    """

    def __init__(self, delta_k_3wm: float, suppression: float, phase_matched: bool):
        self.__dict__.update(delta_k_3wm=delta_k_3wm, suppression=suppression,
                             phase_matched=phase_matched)


def three_wave_residual(pm_in: PhaseMatchInput,
                        pump_choice: int = 1) -> ThreeWaveResidual:
    """Mismatch and suppression of single-pump three-wave mixing when the
    geometry (and any poling) is configured for the four-wave process.

    ``pump_choice`` selects which pump (1 or 2) drives the three-wave channel
    at omega_t3 = omega_pump + omega_m; the same poling vector enters with
    the same sign convention as in :func:`delta_k`.  A suppression of 1 means
    the configuration is degenerate (three-wave matched as well) and is
    flagged so reports can call it out.
    """
    if (pump := _integer(pump_choice)) not in (1, 2):
        raise ValueError(f"pump_choice must be 1 or 2, got {pump_choice}")
    b, m = pm_in.bands, pm_in.material
    last_bands, last_material, ks = _last_k
    # The pump and phonon wavevectors come from _k_bare's entry when it holds
    # this design (ks is (k_t, k_p1, k_p2, k_m)); else they are computed here,
    # pump first and phonon last, so a failing design raises the same error.
    hit = b is last_bands and m is last_material
    omega_p = b.omega_p1 if pump == 1 else b.omega_p2
    k_p = ks[pump] if hit else _optical_k(
        refractive_index(m, b.wavelengths[pump - 1], b.axes[pump - 1]), omega_p)
    omega_t3 = omega_p + b.omega_m
    k_t3 = _optical_k(refractive_index(m, TWO_PI_C / omega_t3, b.axes[2]), omega_t3)
    dk3 = k_t3 - k_p - (ks[3] if hit else _k_acoustic(pm_in)) - _k_grating(pm_in)
    supp = _sinc2(dk3, pm_in.length)
    return ThreeWaveResidual(dk3, supp, dk3 == 0.0 or supp > 1.0 - 1e-12)


def sweep(pm_in: PhaseMatchInput, variable: str, values) -> list[tuple[float, PhaseMatchResult]]:
    """Re-evaluate delta_k over a grid of one design variable.

    ``variable`` is ``"pump-wavelength"`` (both pumps move together, m) or
    ``"poling-period"`` (m).  ``values`` is a nonempty grid.  Returns
    (value, result) pairs in grid order; evaluations are independent, so
    order is deterministic.  Any other ``variable`` raises ValueError, even
    with an empty grid, and is named before the grid is read.
    """
    b, m, length, sign = pm_in.bands, pm_in.material, pm_in.length, pm_in.poling_sign
    if variable == "pump-wavelength":
        def probe(v: float) -> PhaseMatchInput:
            bands = MixingBands.from_vacuum_wavelengths(
                v, v, b.omega_m / TWO_PI, axes=b.axes,
                acoustic_mode=b.acoustic_mode, strain_voigt=b.strain_voigt)
            return PhaseMatchInput(bands, m, length, pm_in.poling_period, sign)
    elif variable == "poling-period":
        def probe(v: float) -> PhaseMatchInput:
            return PhaseMatchInput(b, m, length, v, sign)
    else:
        raise ValueError(
            f"variable must be 'pump-wavelength' or 'poling-period', got {variable!r}")
    if not (grid := _reals(values, "values", 1)):
        raise ValueError("values must not be empty")
    return [(v, delta_k(probe(v))) for v in grid]


PHASEMATCH_SWEEP_CSV_HEADER = (
    "sweep_value,k_t_rad_per_m,k_p1_rad_per_m,k_p2_rad_per_m,"
    "k_m_rad_per_m,k_poling_rad_per_m,delta_k_rad_per_m,efficiency")


def sweep_to_csv(rows: list[tuple[float, PhaseMatchResult]]) -> str:
    lines = [PHASEMATCH_SWEEP_CSV_HEADER]
    for v, r in rows:
        lines.append(",".join(repr(x) for x in (v, *vars(r).values())))
    return "\n".join(lines) + "\n"
