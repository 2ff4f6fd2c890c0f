import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from transduce.errors import DataError, RangeError
from transduce.estimator import MixingBands
from transduce.materials import DispersionModel
from transduce.phasematch import (PHASEMATCH_SWEEP_CSV_HEADER, PhaseMatchInput,
                                  delta_k, pm_efficiency, poling_period, sweep,
                                  sweep_to_csv, three_wave_residual,
                                  wavevector_acoustic, wavevector_optical)

from conftest import designs, make_material

TWO_PI = 2.0 * math.pi

# Brute-force oracle values for the BaTiO3 fixture (pumps 2600 nm, phonon
# 2 GHz, longitudinal sound 5000 m/s), recomputed term by term from
# n*omega/c, omega_m/v_s and the two-point dispersion table before pinning.
BTO_DK_UNPOLED = -2464846.776837226
BTO_LAMBDA_QPM = 2.5491180085611123e-6
BTO_DK_3WM = -48331.76900286414
BTO_SUPPRESSION_100UM = 0.07530142774897312


class TestWavevectors:
    def test_vacuum_identity(self):
        lam = 1e-6
        omega = TWO_PI * 2.99792458e8 / lam
        assert wavevector_optical(1.0, omega) == pytest.approx(TWO_PI * 1e6, rel=1e-12)

    def test_optical_hand_value(self):
        omega = TWO_PI * 2.99792458e8 / 1.31e-6
        assert wavevector_optical(2.27, omega) == pytest.approx(
            TWO_PI * 2.27 / 1.31e-6, rel=1e-12)
        assert wavevector_optical(2.27, omega) == pytest.approx(1.089e7, rel=1e-3)

    def test_optical_linearity(self):
        assert wavevector_optical(2.0, 2e15) == pytest.approx(
            2 * wavevector_optical(2.0, 1e15), rel=1e-15)
        assert wavevector_optical(3.0, 1e15) == pytest.approx(
            1.5 * wavevector_optical(2.0, 1e15), rel=1e-15)

    def test_acoustic(self):
        assert wavevector_acoustic(0.0, 5000.0) == 0.0
        assert wavevector_acoustic(TWO_PI * 2e9, 5000.0) == pytest.approx(
            2.513e6, rel=1e-3)
        assert wavevector_acoustic(TWO_PI * 2e9, 2500.0) == pytest.approx(
            2 * wavevector_acoustic(TWO_PI * 2e9, 5000.0), rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            wavevector_optical(0.5, 1e15)
        with pytest.raises(ValueError):
            wavevector_acoustic(1.0, 0.0)

    @pytest.mark.parametrize("fn, args, name", [
        (wavevector_acoustic, (math.nan, 5000.0), "phonon angular frequency"),
        (wavevector_acoustic, (1e9, math.inf), "sound speed"),
        (wavevector_optical, (2.0, math.inf), "optical angular frequency"),
        (wavevector_optical, (math.inf, 1e15), "refractive index")])
    def test_non_finite_input_is_named(self, fn, args, name):
        # They returned nan, 0.0, inf and inf.
        with pytest.raises(ValueError, match=f"^{name} must be"):
            fn(*args)

    def test_overflowing_optical_wavevector_is_named(self):
        # It returned inf.
        with pytest.raises(ValueError, match=r"^optical wavevector overflows for "
                           r"n=1e\+300, omega=1000000000000000.0$"):
            wavevector_optical(1e300, 1e15)

    def test_overflowing_acoustic_wavevector_is_named(self):
        # It returned inf.
        with pytest.raises(ValueError, match=r"^acoustic wavevector overflows for "
                           r"omega_m=10000000000.0, v_s=1e-300$"):
            wavevector_acoustic(1e10, 1e-300)

    @pytest.mark.parametrize("call", [delta_k, poling_period, three_wave_residual])
    def test_overflowing_acoustic_wavevector_is_named_by_each_caller(
            self, bto, bto_bands, call):
        # Each said only "delta_k must be finite, got -inf".
        m = bto.replace(v_sound={"longitudinal": 1e-300})
        with pytest.raises(ValueError, match=r"^acoustic wavevector overflows for "
                           r"omega_m=12566370614.359173, v_s=1e-300$"):
            call(PhaseMatchInput(bands=bto_bands, material=m, length=100e-6))


class TestDeltaK:
    def test_dispersionless_zero_phonon_is_exactly_zero(self):
        m = make_material()          # constant n = 2.0
        bands = MixingBands.from_vacuum_wavelengths(2.6e-6, 2.6e-6, 0.0)
        res = delta_k(PhaseMatchInput(bands=bands, material=m, length=1e-3))
        assert res.delta_k == 0.0
        assert res.efficiency == 1.0

    def test_batio3_pinned_value(self, bto, bto_bands):
        res = delta_k(PhaseMatchInput(bands=bto_bands, material=bto, length=100e-6))
        assert res.delta_k == pytest.approx(BTO_DK_UNPOLED, rel=1e-12)
        assert res.delta_k == pytest.approx(-2.5e6, rel=0.02)
        assert res.k_m == pytest.approx(2.5132741e6, rel=1e-6)
        assert res.k_poling == 0.0

    def test_components_recombine(self, bto, bto_bands):
        pm = PhaseMatchInput(bands=bto_bands, material=bto, length=100e-6,
                             poling_period=3e-6, poling_sign=-1)
        res = delta_k(pm)
        recombined = res.k_t - res.k_p1 - res.k_p2 - res.k_m - res.k_poling
        assert res.delta_k == pytest.approx(recombined, rel=1e-12)

    def test_pump_exchange_symmetric_for_equal_pumps(self, bto, bto_bands):
        res = delta_k(PhaseMatchInput(bands=bto_bands, material=bto, length=1e-3))
        assert res.k_p1 == res.k_p2

    def test_dispersion_out_of_range(self, bto):
        bands = MixingBands.from_vacuum_wavelengths(2.69e-6, 2.69e-6, 2e9)
        # transduced band near 1345 nm is fine, but pumps at 2.75 um are not
        bad = MixingBands.from_vacuum_wavelengths(2.75e-6, 2.75e-6, 2e9)
        delta_k(PhaseMatchInput(bands=bands, material=bto, length=1e-3))
        with pytest.raises(RangeError):
            delta_k(PhaseMatchInput(bands=bad, material=bto, length=1e-3))

    def test_missing_sound_speed(self, bto_bands):
        m = make_material(v_sound={})
        with pytest.raises(DataError, match="longitudinal"):
            delta_k(PhaseMatchInput(bands=bto_bands, material=m, length=1e-3))


    @pytest.mark.parametrize("period", [math.inf, 1e-320])
    def test_grating_without_a_finite_wavevector_is_named(self, bto, bto_bands, period):
        # inf gave k_poling = 0.0 (no grating) and 1e-320 a delta_k of -inf.
        with pytest.raises(ValueError, match="^poling period must be finite"):
            PhaseMatchInput(bands=bto_bands, material=bto, length=100e-6,
                            poling_period=period)


class TestPolingPeriod:
    def test_batio3_solution(self, bto, bto_bands):
        pm = PhaseMatchInput(bands=bto_bands, material=bto, length=100e-6)
        lam, sign = poling_period(pm)
        assert lam == pytest.approx(BTO_LAMBDA_QPM, rel=1e-12)
        assert lam == pytest.approx(TWO_PI / abs(BTO_DK_UNPOLED), rel=1e-12)
        assert sign == -1

    def test_positive_mismatch_gives_positive_sign(self):
        # normal dispersion, no phonon: k_t outruns the pumps
        m = make_material(n_points=((1.0e-6, 2.4), (3.0e-6, 2.0)))
        bands = MixingBands.from_vacuum_wavelengths(2.6e-6, 2.6e-6, 0.0)
        pm = PhaseMatchInput(bands=bands, material=m, length=1e-3)
        dk0 = delta_k(pm).delta_k
        assert dk0 > 0
        lam, sign = poling_period(pm)
        assert sign == 1
        assert lam == pytest.approx(TWO_PI / dk0, rel=1e-12)

    def test_round_trip_cancels(self, bto, bto_bands):
        pm = PhaseMatchInput(bands=bto_bands, material=bto, length=100e-6)
        dk0 = delta_k(pm).delta_k
        lam, sign = poling_period(pm)
        poled = PhaseMatchInput(bands=bto_bands, material=bto, length=100e-6,
                                poling_period=lam, poling_sign=sign)
        assert abs(delta_k(poled).delta_k) < 1e-9 * abs(dk0)

    def test_no_poling_needed_signal(self):
        m = make_material()
        bands = MixingBands.from_vacuum_wavelengths(2.6e-6, 2.6e-6, 0.0)
        pm = PhaseMatchInput(bands=bands, material=m, length=1e-3)
        assert poling_period(pm) is None

    @given(designs(), st.floats(50e-6, 500e-6))
    @settings(max_examples=200)
    def test_period_is_two_pi_over_the_unpoled_delta_k(self, design, length):
        m, bands = design
        pm = PhaseMatchInput(bands=bands, material=m, length=length)
        dk0 = delta_k(pm).delta_k
        assert poling_period(pm) == (
            None if dk0 == 0.0 else (TWO_PI / abs(dk0), 1 if dk0 > 0 else -1))

    def test_non_finite_bare_mismatch_is_rejected(self, bto_bands):
        # Each wavevector is finite: k_m lies within 2e294 of the largest
        # float and n = 1e290 gives k_p near 2.4e296, so k_m + k_p1 + k_p2
        # overflows.
        rows = tuple((lam, 1e290, 1e290, 2.0) for lam in (1e-6, 3e-6))
        v_s = bto_bands.omega_m / 1.7976931348623e308
        m = make_material().replace(v_sound={"longitudinal": v_s},
                                    dispersion=DispersionModel(
                                        kind="tabulated-points",
                                        valid_range_m=(0.5e-6, 3.5e-6), points=rows))
        pm = PhaseMatchInput(bands=bto_bands, material=m, length=100e-6)
        for call in (delta_k, poling_period):
            with pytest.raises(ValueError, match="^delta_k must be finite, got -inf$"):
                call(pm)

    @pytest.mark.parametrize("call", [delta_k, poling_period, three_wave_residual])
    def test_overflowing_optical_wavevector_is_named_by_each_caller(self, bto_bands, call):
        # n = 4e301 on both pump axes takes n * omega beyond the float range;
        # delta_k and poling_period said only "delta_k must be finite, got -inf".
        rows = tuple((lam, 4e301, 4e301, 2.0) for lam in (1e-6, 3e-6))
        m = make_material().replace(dispersion=DispersionModel(
            kind="tabulated-points", valid_range_m=(0.5e-6, 3.5e-6), points=rows))
        pm = PhaseMatchInput(bands=bto_bands, material=m, length=100e-6)
        with pytest.raises(ValueError, match=r"^optical wavevector overflows for "
                           r"n=4e\+301, omega=724481372041866.6$"):
            call(pm)

    def test_existing_poling_is_ignored_by_solver(self, bto, bto_bands):
        pm = PhaseMatchInput(bands=bto_bands, material=bto, length=100e-6)
        pm_poled = PhaseMatchInput(bands=bto_bands, material=bto, length=100e-6,
                                   poling_period=1e-6, poling_sign=1)
        assert poling_period(pm) == poling_period(pm_poled)


class TestEfficiency:
    def test_perfect_matching(self):
        assert pm_efficiency(0.0, 1e-3) == 1.0

    def test_first_null(self):
        L = 1e-3
        assert pm_efficiency(TWO_PI / L, L) == pytest.approx(0.0, abs=1e-12)

    def test_half_period_value(self):
        L = 1e-3
        assert pm_efficiency(math.pi / L, L) == pytest.approx(
            (2 / math.pi) ** 2, abs=1e-12)

    @given(st.floats(-1e8, 1e8), st.floats(1e-6, 1e-1))
    def test_bounded_and_even(self, dk, L):
        e = pm_efficiency(dk, L)
        assert 0.0 <= e <= 1.0
        assert pm_efficiency(-dk, L) == e

    def test_one_only_at_zero(self):
        L = 1e-3
        for dk in (1.0, 10.0, 1e3, -1e3):
            assert pm_efficiency(dk, L) < 1.0

    def test_taylor_expansion_near_zero(self):
        # quartic Taylor remainder is ~3e-19 here, so the bound is set by
        # float rounding of values near 1, not by the expansion
        L = 1.0
        dkl = 1e-4
        expected = 1.0 - dkl ** 2 / 12.0
        assert pm_efficiency(dkl / L, L) == pytest.approx(expected, abs=1e-15)

    def test_length_must_be_positive(self):
        with pytest.raises(ValueError):
            pm_efficiency(1.0, 0.0)

    @given(st.one_of(st.just(0.0), st.floats(-1e9, 1e9)), st.floats(1e-7, 1e-1))
    def test_matches_np_sinc(self, dk, L):
        want = float(np.sinc(dk * L / 2.0 / math.pi) ** 2)
        got = pm_efficiency(dk, L)
        assert type(got) is float
        assert abs(got - want) <= 1e-15 * want

    @pytest.mark.parametrize("dk, L, name", [
        (math.nan, 1e-3, "delta_k"), (math.inf, 1e-3, "delta_k"),
        (-math.inf, 1e-3, "delta_k"), (1.0, math.nan, "length"),
        (1.0, math.inf, "length"),
        # These two raised "math domain error" from sin(inf).
        (1e300, 1e300,
         r"^delta_k \* length overflows for delta_k=1e\+300, length=1e\+300$"),
        (-1e300, 1e300,
         r"^delta_k \* length overflows for delta_k=-1e\+300, length=1e\+300$")])
    def test_nonfinite_rejected_by_name(self, dk, L, name):
        with pytest.raises(ValueError, match=name):
            pm_efficiency(dk, L)


class TestThreeWaveResidual:
    def _poled(self, bto, bands, length=100e-6):
        pm = PhaseMatchInput(bands=bands, material=bto, length=length)
        lam, sign = poling_period(pm)
        return PhaseMatchInput(bands=bands, material=bto, length=length,
                               poling_period=lam, poling_sign=sign)

    def test_batio3_pinned_values(self, bto, bto_bands):
        tw = three_wave_residual(self._poled(bto, bto_bands))
        assert tw.delta_k_3wm == pytest.approx(BTO_DK_3WM, rel=1e-9)
        assert tw.suppression == pytest.approx(BTO_SUPPRESSION_100UM, rel=1e-9)
        assert not tw.phase_matched

    def test_suppressed_for_all_lengths_beyond_100um(self, bto, bto_bands):
        for L in np.linspace(100e-6, 5e-3, 30):
            tw = three_wave_residual(self._poled(bto, bto_bands, length=L))
            u = abs(tw.delta_k_3wm) * L / 2.0
            assert u > math.sqrt(2.0)          # envelope bound is binding
            assert tw.suppression <= 1.0 / u ** 2 + 1e-15
            assert tw.suppression < 0.5

    def test_envelope_decays_with_length(self, bto, bto_bands):
        bounds = []
        for L in (1e-4, 1e-3, 1e-2):
            tw = three_wave_residual(self._poled(bto, bto_bands, length=L))
            bounds.append(1.0 / (abs(tw.delta_k_3wm) * L / 2.0) ** 2)
        assert bounds[0] > bounds[1] > bounds[2]

    def test_degenerate_dispersionless_fixture_is_flagged(self):
        # with no dispersion the 3WM and 4WM mismatches coincide, so the
        # 4WM-matched grating phase-matches the competing channel too
        m = make_material()
        bands = MixingBands.from_vacuum_wavelengths(2.6e-6, 2.6e-6, 2e9)
        pm = PhaseMatchInput(bands=bands, material=m, length=100e-6)
        lam, sign = poling_period(pm)
        poled = PhaseMatchInput(bands=bands, material=m, length=100e-6,
                                poling_period=lam, poling_sign=sign)
        tw = three_wave_residual(poled)
        assert tw.suppression == pytest.approx(1.0, abs=1e-12)
        assert tw.phase_matched

    def test_pump_choice_validation(self, bto, bto_bands):
        with pytest.raises(ValueError):
            three_wave_residual(self._poled(bto, bto_bands), pump_choice=3)


class TestSweep:
    def test_poling_period_sweep_brackets_solution(self, bto, bto_bands):
        pm = PhaseMatchInput(bands=bto_bands, material=bto, length=100e-6,
                             poling_sign=-1)
        lam, _ = poling_period(pm)
        values = np.linspace(0.8 * lam, 1.2 * lam, 101)
        rows = sweep(pm, "poling-period", values)
        best_value, best = min(rows, key=lambda vr: abs(vr[1].delta_k))
        assert best_value == pytest.approx(lam, rel=5e-3)
        assert best.efficiency > 0.99

    def test_pump_wavelength_sweep_moves_delta_k(self, bto, bto_bands):
        pm = PhaseMatchInput(bands=bto_bands, material=bto, length=100e-6)
        rows = sweep(pm, "pump-wavelength", np.linspace(2.5e-6, 2.65e-6, 7))
        dks = [r.delta_k for _, r in rows]
        assert len(set(dks)) == len(dks)

    def test_unknown_variable(self, bto, bto_bands):
        pm = PhaseMatchInput(bands=bto_bands, material=bto, length=100e-6)
        with pytest.raises(ValueError, match="variable"):
            sweep(pm, "temperature", [1.0])
        with pytest.raises(ValueError, match="variable"):    # it returned []
            sweep(pm, "temperature", [])

    @pytest.mark.parametrize("grid", [[], np.empty(0)], ids=["list", "array"])
    @pytest.mark.parametrize("variable", ["pump-wavelength", "poling-period"])
    def test_empty_grid_is_rejected(self, bto, bto_bands, variable, grid):
        # It returned [], a sweep that held nothing yet raised nothing.
        pm = PhaseMatchInput(bands=bto_bands, material=bto, length=100e-6)
        with pytest.raises(ValueError, match="^values must not be empty$"):
            sweep(pm, variable, grid)

    def test_csv_round_trip(self, bto, bto_bands):
        pm = PhaseMatchInput(bands=bto_bands, material=bto, length=100e-6)
        rows = sweep(pm, "poling-period", [2.0e-6, 3.0e-6])
        text = sweep_to_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == PHASEMATCH_SWEEP_CSV_HEADER
        parsed = [float(v) for v in lines[1].split(",")]
        assert parsed[0] == 2.0e-6
        assert parsed[6] == rows[0][1].delta_k    # bit-exact via repr
