"""Exact counts of the Python calls four workloads make into the package.

A timed benchmark cannot resolve a change of a few percent in one design,
but the number of Python-level calls into ``src/transduce`` is exact and the
same on every supported Python.  Each test counts the ``call`` events of
``sys.setprofile`` (a function entered or a generator resumed) whose code
lives in the package, so a change that adds a call per check on a design's
path moves a pinned count.  A change that moves one on purpose updates the
pin and says why.
"""

import sys
from pathlib import Path

from transduce import (MixingBands, PhaseMatchInput, PumpGeometry, damage_limited_power,
                       default_db, delta_k, peak_field_from_power, peak_intensity,
                       poling_period, power_sweep, second_order_photoelasticity,
                       three_wave_residual, virtual_photoelasticity)
from transduce.phasematch import sweep

PACKAGE = str(Path(second_order_photoelasticity.__code__.co_filename).parent)


def library_calls(run) -> int:
    """The number of Python calls into the package while ``run()`` runs."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            calls += 1
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls


def design_point(m, length=100e-6, power=1e-3, mfd=1.2e-6, n_mode=2.26):
    """The body of one ``design_points`` request: chain, pump field,
    intensity, p_virt, damage limit, unpoled and poled mismatch, poling and
    both three-wave residuals, at the BaTiO3 worked point."""
    bands = MixingBands.from_vacuum_wavelengths(2600e-9, 2600e-9, 2e9, axes=(0, 1, 2))
    chain = second_order_photoelasticity(m, bands)
    field = peak_field_from_power(PumpGeometry(power, mfd, n_mode))
    peak_intensity(power, mfd)
    virtual_photoelasticity(chain.q_eff, m.eps_r[bands.axes[2]], field)
    damage_limited_power(m, mfd)
    pm_in = PhaseMatchInput(bands=bands, material=m, length=length)
    delta_k(pm_in)
    period, sign = poling_period(pm_in)
    poled_in = PhaseMatchInput(bands=bands, material=m, length=length,
                               poling_period=period, poling_sign=sign)
    delta_k(poled_in)
    three_wave_residual(poled_in, 1)
    three_wave_residual(poled_in, 2)


def power_sweep_100(m):
    """A 100-point pump-power sweep of fresh worked-point bands, on a grid
    of plain floats from 1 mW to 6 W."""
    bands = MixingBands.from_vacuum_wavelengths(2600e-9, 2600e-9, 2e9)
    return power_sweep(m, bands, [1e-3 + (6.0 - 1e-3) * i / 99 for i in range(100)],
                       1.2e-6, 2.26)


def test_a_design_makes_108_library_calls():
    # The first design of a process makes as many as any other.  111 while
    # PumpGeometry and peak_intensity each checked the power in a call of
    # its own (_check_power) and _eta2 called _check_indices on indices that
    # pass; each site now reads its float with the one call it made before.
    m = default_db().get("BaTiO3")
    assert library_calls(lambda: design_point(m)) == 108


def test_a_100_point_power_sweep_makes_2093_library_calls():
    # 3394 while each SweepRow read and checked again the seven values its
    # formulas had just checked; 2294 while each point's PumpGeometry and
    # peak_intensity called _check_power, and the chain's _eta2
    # _check_indices.
    m = default_db().get("BaTiO3")
    assert len(power_sweep_100(m).rows) == 100
    assert library_calls(lambda: power_sweep_100(m)) == 2093


def phasematch_sweep_100(m, variable, lo, hi):
    """A 100-point ``phasematch.sweep`` of ``variable`` over a grid of plain
    floats from ``lo`` to ``hi``, on fresh worked-point bands with L = 100 um."""
    pm_in = PhaseMatchInput(MixingBands.from_vacuum_wavelengths(2600e-9, 2600e-9, 2e9),
                            m, 100e-6)
    return sweep(pm_in, variable, [lo + (hi - lo) * i / 99 for i in range(100)])


def test_a_100_point_pump_wavelength_sweep_makes_3718_library_calls():
    # Each point builds its own MixingBands from a tuple of three plain
    # ints, which the axes fast path reads with no call.
    m = default_db().get("BaTiO3")
    assert len(phasematch_sweep_100(m, "pump-wavelength", 2.5e-6, 2.65e-6)) == 100
    assert library_calls(
        lambda: phasematch_sweep_100(m, "pump-wavelength", 2.5e-6, 2.65e-6)) == 3718


def test_a_100_point_poling_period_sweep_makes_1139_library_calls():
    m = default_db().get("BaTiO3")
    assert len(phasematch_sweep_100(m, "poling-period", 2.5e-6, 2.6e-6)) == 100
    assert library_calls(lambda: phasematch_sweep_100(m, "poling-period", 2.5e-6, 2.6e-6)) == 1139
