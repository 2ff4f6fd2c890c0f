"""One index lookup and one wavevector per band per design.

The Miller chain, delta_k and poling_period read a design's three band
indices through one lookup that remembers the last (bands, dispersion) pair.
delta_k and poling_period share the design's four wavevectors through one
entry that remembers the last (bands, material) pair, and each three-wave
channel takes its pump and phonon wavevectors from that entry, so it looks
up only its own omega_p + omega_m band.  These tests pin the number of
lookups and wavevector evaluations, and that a remembered index or
wavevector is never a stale one.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings

from transduce.errors import RangeError, TransduceError
from transduce.estimator import MixingBands, second_order_photoelasticity
from transduce.materials import DispersionModel, refractive_index
from transduce.phasematch import (PhaseMatchInput, _optical_k, delta_k, poling_period,
                                  sweep, three_wave_residual)

from conftest import designs, make_material

LENGTH = 100e-6


def design_outputs(m, bands):
    """Every output of one design, in the order of a design request: the
    chain, delta_k, the poling solve, the poled delta_k and both three-wave
    channels; the first error ends the list as its type and message."""
    out = []
    try:
        out.append(second_order_photoelasticity(m, bands))
        pm_in = PhaseMatchInput(bands, m, LENGTH)
        out += [delta_k(pm_in), poling_period(pm_in)]
        period, sign = out[-1] or (None, 1)
        poled = PhaseMatchInput(bands, m, LENGTH, period, sign)
        out += [delta_k(poled), three_wave_residual(poled, 1),
                three_wave_residual(poled, 2)]
    except (TransduceError, ValueError) as exc:
        out.append((type(exc), str(exc)))
    return out


def fresh_copy(m):
    """``m`` with a new dispersion object, so no remembered index is reused."""
    return m.replace(dispersion=m.dispersion.replace())


class TestLookupCount:
    def test_one_design_looks_up_five_indices(self, bto, bto_bands, count_calls):
        calls = count_calls(refractive_index)
        out = design_outputs(bto, bto_bands)
        assert len(out) == 6 and not isinstance(out[-1], tuple)
        # Three for the chain, shared by delta_k and poling_period; one for
        # each three-wave channel, its omega_p + omega_m output: the pump
        # comes with the design's wavevectors.
        (l1, l2, lt), (a1, a2, at) = bto_bands.wavelengths, bto_bands.axes
        assert [c[1:] for c in calls[:3]] == [(l1, a1), (l2, a2), (lt, at)]
        assert [c[2] for c in calls[3:]] == [at, at]
        assert len(calls) == 5

    def test_one_design_evaluates_five_optical_wavevectors(self, bto, bto_bands,
                                                          count_calls):
        calls = count_calls(_optical_k)
        out = design_outputs(bto, bto_bands)
        assert len(out) == 6 and not isinstance(out[-1], tuple)
        # k_p1, k_p2 and k_t once for delta_k, poling_period and the poled
        # delta_k; k_t3 for each three-wave channel.
        b = bto_bands
        assert [c[1] for c in calls] == [b.omega_p1, b.omega_p2, b.omega_t,
                                         b.omega_p1 + b.omega_m, b.omega_p2 + b.omega_m]

    def test_poling_period_sweep_looks_up_three_indices(self, bto, bto_bands,
                                                        count_calls):
        calls = count_calls(refractive_index)
        pm_in = PhaseMatchInput(bto_bands, bto, LENGTH)
        rows = sweep(pm_in, "poling-period", np.linspace(2e-6, 3e-6, 50))
        assert len(rows) == 50
        assert len(calls) == 3

    def test_pump_wavelength_sweep_looks_up_each_point(self, bto, bto_bands,
                                                       count_calls):
        calls = count_calls(refractive_index)
        pm_in = PhaseMatchInput(bto_bands, bto, LENGTH)
        sweep(pm_in, "pump-wavelength", np.linspace(2.5e-6, 2.65e-6, 7))
        assert len(calls) == 3 * 7


class TestNoStaleIndex:
    @given(designs())
    @settings(max_examples=200)
    def test_outputs_match_a_material_with_a_fresh_dispersion(self, design):
        m, bands = design
        assert design_outputs(m, bands) == design_outputs(fresh_copy(m), bands)

    def test_one_bands_with_two_materials_in_turn(self, bto, bto_bands):
        other = make_material(n_points=((1.0e-6, 2.4), (3.0e-6, 2.0)))
        expected = {id(m): tuple(refractive_index(m, lam, axis) for lam, axis
                                 in zip(bto_bands.wavelengths, bto_bands.axes))
                    for m in (bto, other)}
        assert expected[id(bto)] != expected[id(other)]
        pm_ins = {id(m): PhaseMatchInput(bto_bands, m, LENGTH) for m in (bto, other)}
        for m in (bto, other, other, bto, other, bto, bto):
            assert second_order_photoelasticity(m, bto_bands).n_bands == expected[id(m)]
            assert delta_k(pm_ins[id(m)]) == delta_k(
                PhaseMatchInput(bto_bands, fresh_copy(m), LENGTH))

    def test_a_material_sharing_the_dispersion_gets_its_own_wavevectors(
            self, bto, bto_bands):
        # m.replace(v_sound=...) keeps m.dispersion, so the indices are shared
        # and reused; k_m, and with it every mismatch, must not be.
        slow = bto.replace(v_sound={"longitudinal": 3000.0})
        assert slow.dispersion is bto.dispersion

        def phase_outputs(m):
            pm_in = PhaseMatchInput(bto_bands, m, LENGTH)
            period, sign = poling_period(pm_in)
            poled = PhaseMatchInput(bto_bands, m, LENGTH, period, sign)
            return (delta_k(pm_in), (period, sign), delta_k(poled),
                    three_wave_residual(poled, 1), three_wave_residual(poled, 2))
        expected = {id(m): phase_outputs(fresh_copy(m)) for m in (bto, slow)}
        assert expected[id(bto)][0].k_m != expected[id(slow)][0].k_m
        for m in (bto, slow, slow, bto, slow):
            assert phase_outputs(m) == expected[id(m)]
        # A three-wave channel right after the other material's delta_k.
        for m, last in ((bto, slow), (slow, bto)):
            delta_k(PhaseMatchInput(bto_bands, last, LENGTH))
            period, sign = expected[id(m)][1]
            poled = PhaseMatchInput(bto_bands, m, LENGTH, period, sign)
            assert three_wave_residual(poled, 2) == expected[id(m)][4]

    def test_a_model_built_from_lists_does_not_change_with_them(self, bto, bto_bands):
        # The lists were stored as given, so editing one after a lookup
        # changed the model's indices under a remembered entry.
        window, terms = [1e-6, 3e-6], [[[2.0, 1e-14]] for _ in range(3)]
        m = bto.replace(dispersion=DispersionModel(kind="sellmeier", valid_range_m=window,
                                                   sellmeier=terms))
        before = second_order_photoelasticity(m, bto_bands).n_bands
        window[1], terms[2][0][0] = 2e-6, 3.0
        assert (m.dispersion.valid_range_m, m.dispersion.sellmeier) == (
            (1e-6, 3e-6), (((2.0, 1e-14),),) * 3)
        assert second_order_photoelasticity(m, bto_bands).n_bands == before
        assert second_order_photoelasticity(fresh_copy(m), bto_bands).n_bands == before

    def test_out_of_window_pump_raises_on_every_call(self, bto, count_calls):
        bands = MixingBands.from_vacuum_wavelengths(2.6e-6, 3.0e-6, 2e9)
        pm_in = PhaseMatchInput(bands, bto, LENGTH)
        calls = count_calls(refractive_index)
        messages = set()
        for call in [lambda: second_order_photoelasticity(bto, bands),
                     lambda: delta_k(pm_in), lambda: poling_period(pm_in)] * 2:
            with pytest.raises(RangeError) as exc:
                call()
            messages.add(str(exc.value))
        assert messages == {"wavelength 3e-06 m outside declared validity "
                            "range [1.2e-06, 2.7e-06] m"}
        # Pump 1, then pump 2 fails, each time: a failure is not remembered.
        assert len(calls) == 6 * 2

    def test_three_wave_residual_needs_no_four_wave_output(self, bto_bands):
        # The four-wave output near 1.3 um lies outside a 2.0-3.5 um window;
        # the three-wave bands, near 2.6 um, lie inside it.
        m = make_material(n_points=((2.0e-6, 2.4), (3.0e-6, 2.0)),
                          valid=(2.0e-6, 3.5e-6))
        pm_in = PhaseMatchInput(bto_bands, m, LENGTH, poling_period=2.5e-6)
        with pytest.raises(RangeError, match="wavelength 1.29999"):
            delta_k(pm_in)
        for pump in (1, 2):
            assert 0.0 <= three_wave_residual(pm_in, pump).suppression <= 1.0


def test_every_band_is_looked_up_before_any_wavevector_is_checked():
    # An index whose wavevector overflows at pump 1 and pump 2 outside the
    # window: delta_k and poling_period report the window, as the chain
    # always did, where they once reported the index of pump 1.
    m = make_material(n_points=((1.0e-6, 4e301), (3.0e-6, 4e301)))
    bands = MixingBands.from_vacuum_wavelengths(2.6e-6, 4.0e-6, 2e9)
    pm_in = PhaseMatchInput(bands, m, LENGTH)
    for call in (lambda: second_order_photoelasticity(m, bands),
                 lambda: delta_k(pm_in), lambda: poling_period(pm_in)):
        with pytest.raises(RangeError, match="^wavelength 4e-06 m outside"):
            call()


def test_threads_sharing_the_last_lookup_read_their_own_indices():
    # The remembered entries are tuples, read and replaced whole, so no
    # thread pairs one design's bands with another design's indices or
    # wavevectors, in delta_k or in a three-wave channel.
    pairs = [(make_material(n_points=((1.0e-6, 2.0 + 0.1 * i), (3.0e-6, 2.0)),
                            v_sound={"longitudinal": 5000.0 + 100.0 * i}),
              MixingBands.from_vacuum_wavelengths(2.6e-6 - i * 1e-8, 2.6e-6, 2e9))
             for i in range(6)]

    def outputs(m, b):
        pm_in = PhaseMatchInput(b, m, LENGTH, poling_period=2.5e-6)
        return (second_order_photoelasticity(m, b).n_bands, delta_k(pm_in),
                three_wave_residual(pm_in, 1), three_wave_residual(pm_in, 2))
    expected = [outputs(fresh_copy(m), b) for m, b in pairs]
    wrong = []

    def work(k):
        for _ in range(200):
            for j in (k, (k + 1) % len(pairs)):
                if outputs(*pairs[j]) != expected[j]:
                    wrong.append(j)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(pairs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
