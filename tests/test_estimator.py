import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from transduce.errors import DataError, SingularityError
from transduce.estimator import (CouplingBenchmark, MixingBands,
                                 PIEZO_OPTOMECHANICAL_BENCHMARK,
                                 POWER_SWEEP_CSV_HEADER, PumpGeometry,
                                 damage_limited_power, eta1_rel, eta2_from_Q,
                                 eta2_from_deff, interaction_density_3wm,
                                 interaction_density_4wm, miller_Q,
                                 peak_field_from_power, peak_intensity,
                                 power_sweep, q_eff_from_deff, q_eff_from_eta2,
                                 second_order_photoelasticity,
                                 virtual_photoelasticity)
from transduce.materials import refractive_index
from transduce.tensors import voigt_index
from transduce.units import (COULOMB_PER_M2, C_LIGHT_Q, DIMENSIONLESS, EPS0,
                             EPS0_Q, ETA2, JOULE_PER_M3, METER, METER_PER_VOLT,
                             M2_PER_COULOMB, Quantity, TWO_PI, TWO_PI_C,
                             VOLT_PER_METER, WATT, WATT_PER_M2)

from conftest import designs, make_material

finite = st.floats(allow_nan=False, allow_infinity=False)


class TestMixingBands:
    def test_energy_conservation_by_construction(self):
        b = MixingBands(omega_p1=1.0e15, omega_p2=0.9e15, omega_m=1.2e10)
        assert b.omega_t == b.omega_p1 + b.omega_p2 + b.omega_m

    def test_from_wavelengths(self):
        b = MixingBands.from_vacuum_wavelengths(2600e-9, 2600e-9, 2e9)
        lam_p1, lam_p2, lam_t = b.wavelengths
        assert lam_p1 == pytest.approx(2600e-9, rel=1e-12)
        assert lam_t == pytest.approx(1.29999e-6, rel=1e-4)   # just under 1300 nm

    @pytest.mark.parametrize("kw, name", [
        ({"omega_p1": math.inf}, "omega_p1"), ({"omega_p2": math.nan}, "omega_p2"),
        ({"omega_p2": 0.0}, "omega_p2"), ({"omega_m": math.nan}, "omega_m"),
        ({"omega_m": math.inf}, "omega_m")])
    def test_bad_frequency_rejected_by_name(self, kw, name):
        args = dict({"omega_p1": 1.0e15, "omega_p2": 0.9e15, "omega_m": 1.2e10}, **kw)
        with pytest.raises(ValueError, match=name):
            MixingBands(**args)

    @pytest.mark.parametrize("args, name", [
        ((0.0, 2.6e-6, 2e9), "lambda_p1"), ((2.6e-6, -2.6e-6, 2e9), "lambda_p2"),
        ((math.inf, 2.6e-6, 2e9), "lambda_p1"), ((2.6e-6, math.nan, 2e9), "lambda_p2"),
        ((2.6e-6, 2.6e-6, math.nan), "phonon_hz"), ((2.6e-6, 2.6e-6, -1.0), "phonon_hz"),
        # Finite inputs whose omega overflows are named by the omega.
        ((5e-324, 2.6e-6, 2e9), "^omega_p1 must be positive and finite, got inf$"),
        ((2.6e-6, 5e-324, 2e9), "^omega_p2 must be positive and finite, got inf$"),
        ((2.6e-6, 2.6e-6, 1e308), "^omega_m must be finite and >= 0, got inf$")])
    def test_bad_wavelength_or_phonon_rejected_by_name(self, args, name):
        with pytest.raises(ValueError, match=name):
            MixingBands.from_vacuum_wavelengths(*args)

    @pytest.mark.parametrize("kw, message", [
        ({"axes": (0.0, 1.0, 2.0)}, "axes must be three indices in 0..2, got (0.0, 1.0, 2.0)"),
        ({"axes": (0, True, 2)}, "axes must be three indices in 0..2, got (0, True, 2)"),
        ({"strain_voigt": 2.0}, "strain_voigt must be in 0..5, got 2.0"),
        ({"strain_voigt": False}, "strain_voigt must be in 0..5, got False"),
        ({"acoustic_mode": ["x"]}, "acoustic_mode must be a string, got ['x']"),
        ({"acoustic_mode": None}, "acoustic_mode must be a string, got None")])
    def test_float_or_bool_index_is_rejected(self, kw, message):
        # 1.0 and True compare equal to 1, so these passed, and the chain
        # then failed on a float tuple index or read the axis a bool names.
        # A mode that is no string passed too, and a later delta_k raised a
        # bare TypeError looking it up in the sound speed table.
        with pytest.raises(ValueError) as exc:
            MixingBands.from_vacuum_wavelengths(2.6e-6, 2.6e-6, 2e9, **kw)
        assert str(exc.value) == message

    @given(st.one_of(st.floats(1e-7, 1e-4), st.sampled_from([5e-324, -1.0])),
           st.one_of(st.floats(1e-7, 1e-4), st.sampled_from([5e-324, -1.0])),
           st.one_of(st.floats(0.0, 1e11), st.sampled_from([1e308, -1.0])),
           st.sampled_from([{}, {"axes": (2, 0, 1), "acoustic_mode": "shear"},
                            {"axes": (0, 1, 3)}, {"axes": 5}, {"strain_voigt": 6},
                            {"strain_voigt": 2.0}]))
    @settings(max_examples=300)
    def test_from_vacuum_wavelengths_is_the_constructor_on_its_omegas(self, l1, l2, hz, kw):
        # Its own checks come first; then the constructor, the only gate,
        # returns the same bands or raises the same error.
        def outcome(build):
            try:
                return build()
            except ValueError as exc:
                return str(exc)
        own = [message for ok, message in (
            (l1 > 0, f"lambda_p1 must be a positive finite wavelength, got {l1}"),
            (l2 > 0, f"lambda_p2 must be a positive finite wavelength, got {l2}"),
            (hz >= 0, f"phonon_hz must be finite and >= 0, got {hz}")) if not ok]
        want = own[0] if own else outcome(
            lambda: MixingBands(TWO_PI_C / l1, TWO_PI_C / l2, TWO_PI * hz, **kw))
        assert outcome(lambda: MixingBands.from_vacuum_wavelengths(l1, l2, hz, **kw)) == want

    def test_numpy_integer_indices_are_stored_as_ints(self, bto):
        b = MixingBands.from_vacuum_wavelengths(
            2.6e-6, 2.6e-6, 2e9, axes=(np.int64(0), np.int8(1), np.uint16(2)),
            strain_voigt=np.int32(2))
        plain = MixingBands.from_vacuum_wavelengths(2.6e-6, 2.6e-6, 2e9)
        assert [type(a) for a in (*b.axes, b.strain_voigt)] == [int] * 4
        assert repr(b) == repr(plain)
        assert second_order_photoelasticity(bto, b) == second_order_photoelasticity(
            bto, plain)

    def test_validation(self):
        with pytest.raises(ValueError):
            MixingBands(omega_p1=-1.0, omega_p2=1.0, omega_m=0.0)
        with pytest.raises(ValueError):
            MixingBands(omega_p1=1.0, omega_p2=1.0, omega_m=0.0, axes=(0, 1, 5))
        with pytest.raises(ValueError):
            MixingBands(omega_p1=1.0, omega_p2=1.0, omega_m=0.0, strain_voigt=9)


class TestEta1:
    def test_vacuum(self):
        assert eta1_rel(1.0) == 1.0

    def test_direct_algebra(self):
        assert eta1_rel(2.27) == pytest.approx(1 / 2.27**2, rel=1e-15)
        assert eta1_rel(2.26) == pytest.approx(0.195787, rel=1e-5)

    def test_below_one_rejected(self):
        with pytest.raises(ValueError):
            eta1_rel(0.99)


class TestEta2AndMiller:
    def test_zero_deff(self):
        assert eta2_from_deff(0.0, 2.0, 2.0, 2.0) == 0.0

    def test_hand_evaluation(self):
        # 2e-11 / (eps0^2 * 2.26^2 * 2.26^2 * 2.27^2)
        got = eta2_from_deff(1e-11, 2.26, 2.26, 2.27)
        assert got == pytest.approx(2e-11 / (EPS0**2 * 134.4267), rel=1e-5)
        assert got == pytest.approx(1.898e9, rel=1e-3)

    def test_linearity(self):
        one = eta2_from_deff(1e-11, 2.26, 2.26, 2.27)
        two = eta2_from_deff(2e-11, 2.26, 2.26, 2.27)
        assert two == pytest.approx(2 * one, rel=1e-15)

    @pytest.mark.parametrize("route", [
        lambda d: eta2_from_deff(d, 2.0, 2.0, 2.0),
        lambda d: q_eff_from_deff(d, (2.0, 2.0, 2.0), (0.5, 0.5, 0.5))],
        ids=["eta2", "q_eff"])
    def test_overflow_rejected_naming_d_eff(self, route):
        with pytest.raises(ValueError, match=r"overflows for d_eff=1e\+300"):
            route(1e300)

    def test_miller_q_zero(self):
        assert miller_Q(0.0, 2.0, 2.0, 2.0) == 0.0

    def test_miller_q_hand_value(self):
        got = miller_Q(1.898e9, 2.26, 2.26, 2.27)
        assert got == pytest.approx(-1.898e9 / 0.5212455, rel=1e-6)
        assert got == pytest.approx(-3.64e9, rel=1e-3)

    def test_vacuum_band_is_singular(self):
        with pytest.raises(SingularityError):
            miller_Q(1.0, 1.0, 2.0, 2.0)

    @pytest.mark.parametrize("ns, error, message", [
        ((0.5, 1.0, 2.0), ValueError, "refractive index must be finite and > 1, got 0.5"),
        ((1.0, 0.5, 2.0), SingularityError, "Miller constant is singular"),
        ((2.0, math.nan, 1.0), ValueError,
         "refractive index must be finite and > 1, got nan")])
    def test_miller_q_first_bad_band_decides_the_error(self, ns, error, message):
        with pytest.raises(error, match=re.escape(message)):
            miller_Q(1.0, *ns)

    def test_eta2_from_q_vacuum_band_gives_signed_zero(self):
        got = eta2_from_Q(5.0, 1.0, 2.0, 2.0)
        assert got == 0.0 and math.copysign(1.0, got) == -1.0

    @pytest.mark.parametrize("route, first", [(q_eff_from_deff, 1e-11),
                                              (q_eff_from_eta2, 1.9e9)])
    @pytest.mark.parametrize("ns", [(1.0, 2.0, 2.0), (2.0, 2.0, 1.0)])
    def test_q_eff_vacuum_band_is_singular(self, route, first, ns):
        with pytest.raises(SingularityError, match="vacuum band"):
            route(first, ns, (0.2, 0.2, 0.77))

    @pytest.mark.parametrize("call, message", [
        (lambda: q_eff_from_eta2(math.inf, (2.0, 2.0, 2.0), (0.5, 0.5, 0.5)),
         r"eta2 must be finite, got inf"),
        (lambda: q_eff_from_eta2(math.nan, (2.0, 2.0, 2.0), (0.5, 0.5, 0.5)),
         r"eta2 must be finite, got nan"),
        (lambda: q_eff_from_eta2(1e300, (2.0, 2.0, 2.0), (1e300, 1e300, 1e300)),
         r"q_eff overflows for eta2=1e\+300, ns=\(2.0, 2.0, 2.0\), "
         r"ps=\(1e\+300, 1e\+300, 1e\+300\)"),
        (lambda: q_eff_from_eta2(1.0, (2.0, 2.0, 2.0), (math.inf, 0.0, 0.0)),
         r"ps must be finite, got \(inf, 0.0, 0.0\)"),
        (lambda: q_eff_from_deff(1.0, (2.0, 2.0, 2.0), (math.inf, 0.0, 0.0)),
         r"ps must be finite, got \(inf, 0.0, 0.0\)"),
        (lambda: q_eff_from_deff(math.nan, (2.0, 2.0, 2.0), (0.5, 0.5, 0.5)),
         r"d_eff must be finite, got nan"),
        (lambda: miller_Q(math.nan, 2, 2, 2), r"eta2 must be finite, got nan"),
        (lambda: miller_Q(1e300, 1.0000000000000002, 1.0000000000000002, 2.0),
         r"Miller Q overflows for eta2=1e\+300, n1=1.0000000000000002, "
         r"n2=1.0000000000000002, n3=2.0"),
        (lambda: eta2_from_Q(math.inf, 2, 2, 2), r"Q must be finite, got inf"),
        (lambda: interaction_density_3wm(math.nan, 1, 1, 1),
         r"p_eff must be finite, got nan"),
        (lambda: interaction_density_4wm(1e300, 1e300, 1, 1, 1),
         r"interaction density overflows for q_eff=1e\+300, dp=1e\+300, d1=1, d2=1, x=1")],
        ids=["q_eff_from_eta2-inf", "q_eff_from_eta2-nan", "q_eff_from_eta2-overflow",
             "q_eff_from_eta2-ps-inf", "q_eff_from_deff-ps-inf", "q_eff_from_deff-nan",
             "miller_Q-nan", "miller_Q-overflow", "eta2_from_Q-inf",
             "interaction_density_3wm-nan", "interaction_density_4wm-overflow"])
    def test_non_finite_result_is_named(self, call, message):
        # The ps-inf and q_eff_from_deff-nan cases said "q_eff overflows for
        # ..."; the others returned -inf, nan or inf.
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()

    @given(st.floats(1e6, 1e12), st.floats(1.1, 3.5), st.floats(1.1, 3.5),
           st.floats(1.1, 3.5))
    def test_roundtrip_eta2_Q(self, eta2, n1, n2, n3):
        back = eta2_from_Q(miller_Q(eta2, n1, n2, n3), n1, n2, n3)
        assert back == pytest.approx(eta2, rel=1e-12)


class TestChainInputChecks:
    # Each of these accepted n = inf: eta1_rel and eta2_from_deff gave 0.0,
    # q_eff_from_deff -0.0, miller_Q -1.78e9 and eta2_from_Q -5.6e8.
    @pytest.mark.parametrize("call, message", [
        (lambda: eta1_rel(math.inf), "must be finite and >= 1, got inf"),
        (lambda: eta2_from_deff(1e-11, math.inf, 2.0, 2.0),
         "must be finite and >= 1, got inf"),
        (lambda: miller_Q(1e9, math.inf, 2.0, 2.0), "must be finite and > 1, got inf"),
        (lambda: eta2_from_Q(1e9, math.inf, 2.0, 2.0),
         "must be finite and >= 1, got inf"),
        (lambda: q_eff_from_eta2(1.9e9, (2.0, math.inf, 2.0), (0.5, 0.5, 0.5)),
         "must be finite and >= 1, got inf"),
        (lambda: q_eff_from_deff(1e-11, (math.inf, 2.0, 2.0), (0.5, 0.5, 0.5)),
         "must be finite and >= 1, got inf")],
        ids=["eta1_rel", "eta2_from_deff", "miller_Q", "eta2_from_Q",
             "q_eff_from_eta2", "q_eff_from_deff"])
    def test_infinite_index_rejected(self, call, message):
        with pytest.raises(ValueError, match=f"^refractive index {message}$"):
            call()

    @pytest.mark.parametrize("route, first", [(q_eff_from_deff, 1e-11),
                                              (q_eff_from_eta2, 1.9e9)],
                             ids=["q_eff_from_deff", "q_eff_from_eta2"])
    @pytest.mark.parametrize("count", [2, 4])
    @pytest.mark.parametrize("arg", ["ns", "ps"])
    def test_band_count_is_named(self, route, first, count, arg):
        # These failed with "not enough values to unpack", naming no argument.
        kw = {"ns": (2.0, 2.0, 2.0), "ps": (0.5, 0.5, 0.5)}
        kw[arg] = kw[arg][:1] * count
        with pytest.raises(ValueError, match=f"^{arg} must hold 3 values, "
                                             f"one per band, got {count}$"):
            route(first, **kw)


class TestSecondOrderPhotoelasticity:
    def test_golden_batio3(self, bto, bto_bands):
        chain = second_order_photoelasticity(bto, bto_bands)
        assert abs(chain.q_eff) == pytest.approx(2.45e-2, rel=0.02)
        assert chain.q_eff < 0          # sign per the closed form
        assert chain.n_bands == (2.26, 2.26, 2.27)
        assert chain.p_entries == (0.2, 0.2, 0.77)
        assert chain.eta2 == pytest.approx(1.898e9, rel=1e-3)
        assert chain.Q == pytest.approx(-3.64e9, rel=1e-3)

    def test_zero_deff_material(self, bto_bands):
        m = make_material(d_eff=0.0)
        assert second_order_photoelasticity(m, bto_bands).q_eff == 0.0

    def test_zero_p_entries(self, bto_bands):
        m = make_material(p_entries={})
        assert second_order_photoelasticity(m, bto_bands).q_eff == 0.0

    def test_missing_p_entry_names_it(self, bto_bands):
        m = make_material(p_entries={(2, 2): math.nan})
        with pytest.raises(DataError, match=r"\[2\]\[2\]"):
            second_order_photoelasticity(m, bto_bands)

    @pytest.mark.parametrize("strain", range(6))
    def test_each_band_reads_its_diagonal_voigt_entry(self, strain):
        # Every cell distinct, so a wrong row or column shows; each axis
        # triple puts every axis at every band position.
        m = make_material(p_entries={(v, w): 0.01 * (6 * v + w + 1)
                                     for v in range(6) for w in range(6)})
        for axes in [(0, 1, 2), (2, 0, 1), (1, 2, 0), (2, 2, 1)]:
            bands = MixingBands.from_vacuum_wavelengths(2.6e-6, 2.6e-6, 2e9, axes=axes,
                                                        strain_voigt=strain)
            chain = second_order_photoelasticity(m, bands)
            assert chain.p_entries == tuple(m.photoelastic.entries[voigt_index(a, a)][strain]
                                            for a in axes)

    @pytest.mark.parametrize("axis", range(3))
    def test_missing_p_entry_names_its_axis_and_column(self, axis):
        m = make_material(p_entries={(axis, 4): math.nan})
        bands = MixingBands.from_vacuum_wavelengths(2.6e-6, 2.6e-6, 2e9,
                                                    axes=(axis, axis, axis), strain_voigt=4)
        with pytest.raises(DataError) as exc:
            second_order_photoelasticity(m, bands)
        assert str(exc.value) == (f"material 'fix' has no photoelastic entry [{axis}][4] "
                                  f"(axis {axis}, strain column 4) required by these bands")

    def test_overflowing_miller_constant_is_named(self, bto_bands):
        # Bands at n = 1 + 2^-52 and a huge d_eff: Q was -inf, q_eff finite.
        n = 1.0000000000000002
        m = make_material(n_points=((1e-6, n), (3e-6, n)), d_eff=1e250)
        with pytest.raises(ValueError, match=r"^Miller Q overflows for eta2=.*, "
                           r"n1=1.0000000000000002, n2=1.0000000000000002, "
                           r"n3=1.0000000000000002$"):
            second_order_photoelasticity(m, bto_bands)

    def test_qpm_reduction_only_on_request(self, bto, bto_bands):
        plain = second_order_photoelasticity(bto, bto_bands)
        poled = second_order_photoelasticity(bto, bto_bands, apply_qpm_reduction=True)
        assert poled.d_eff == pytest.approx(plain.d_eff * 2 / math.pi, rel=1e-15)
        assert poled.q_eff == pytest.approx(plain.q_eff * 2 / math.pi, rel=1e-12)

    def test_monotone_in_each_p_entry(self, bto_bands):
        base = make_material()
        q0 = abs(second_order_photoelasticity(base, bto_bands).q_eff)
        for idx in ((0, 2), (1, 2), (2, 2)):
            entries = {(0, 2): 0.2, (1, 2): 0.2, (2, 2): 0.77}
            entries[idx] = entries[idx] * 1.1
            bumped = make_material(p_entries=entries)
            assert abs(second_order_photoelasticity(bumped, bto_bands).q_eff) > q0


class TestOnePassChain:
    @given(designs())
    @settings(max_examples=200)
    def test_fields_are_the_per_band_functions(self, design):
        m, bands = design
        chain = second_order_photoelasticity(m, bands)
        ns, ps = chain.n_bands, chain.p_entries
        assert ns == tuple(refractive_index(m, lam, axis)
                           for lam, axis in zip(bands.wavelengths, bands.axes))
        assert chain.eta1_rel_bands == tuple(eta1_rel(n) for n in ns)
        assert chain.eta2 == eta2_from_deff(chain.d_eff, *ns)
        assert chain.Q == miller_Q(chain.eta2, *ns)
        assert chain.q_eff == q_eff_from_deff(chain.d_eff, ns, ps)


class TestRouteEquivalence:
    @given(st.floats(0, 1e-10), st.floats(1.1, 3.5), st.floats(1.1, 3.5),
           st.floats(1.1, 3.5), st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1))
    @settings(max_examples=200)
    def test_eq11_route_equals_eq12_route(self, d_eff, n1, n2, n3, p1, p2, p3):
        ns, ps = (n1, n2, n3), (p1, p2, p3)
        via_eta2 = q_eff_from_eta2(eta2_from_deff(d_eff, *ns), ns, ps)
        closed = q_eff_from_deff(d_eff, ns, ps)
        assert via_eta2 == pytest.approx(closed, rel=1e-12, abs=1e-300)


class TestFieldAndIntensity:
    def test_golden_field(self):
        E = peak_field_from_power(PumpGeometry(1e-3, 1.2e-6, 2.26))
        assert E == pytest.approx(7.68e5, rel=0.01)

    def test_zero_power(self):
        assert peak_field_from_power(PumpGeometry(0.0, 1.2e-6, 2.26)) == 0.0

    def test_sqrt_scaling(self):
        e1 = peak_field_from_power(PumpGeometry(0.25, 1.2e-6, 2.26))
        e4 = peak_field_from_power(PumpGeometry(1.0, 1.2e-6, 2.26))
        assert e4 == pytest.approx(2 * e1, rel=1e-12)

    def test_golden_intensity(self):
        i = peak_intensity(1e-3, 1.2e-6)
        assert i == pytest.approx(88.4e3 * 1e4, rel=0.01)   # 88.4 kW/cm^2 in W/m^2

    def test_intensity_trivials(self):
        assert peak_intensity(0.0, 1.2e-6) == 0.0
        assert peak_intensity(1.0, 2.4e-6) == pytest.approx(
            peak_intensity(1.0, 1.2e-6) / 4, rel=1e-12)

    @pytest.mark.parametrize("args, name", [
        ((math.nan, 1.2e-6), "power"), ((math.inf, 1.2e-6), "power"),
        ((1e-3, math.nan), "mode-field diameter"), ((1e-3, math.inf), "mode-field diameter"),
        ((1e300, 1.2e-6), r"peak intensity overflows for power=1e\+300")])
    def test_intensity_nonfinite_rejected_by_name(self, args, name):
        with pytest.raises(ValueError, match=name):
            peak_intensity(*args)

    def test_golden_damage_limited_power(self, bto):
        assert damage_limited_power(bto, 1.2e-6) == pytest.approx(6.11, rel=0.02)

    def test_damage_scalings(self, bto):
        assert damage_limited_power(bto, 2.4e-6) == pytest.approx(
            4 * damage_limited_power(bto, 1.2e-6), rel=1e-12)
        zero = make_material(damage=1e-30)
        assert damage_limited_power(zero, 1.2e-6) == pytest.approx(0.0, abs=1e-35)

    def test_overflowing_damage_limited_power_is_named(self, bto):
        # It returned inf.
        with pytest.raises(ValueError, match=r"^damage-limited power overflows for "
                           r"damage_threshold=5400000000000.0, mfd=1e\+150$"):
            damage_limited_power(bto, 1e150)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            PumpGeometry(-1.0, 1.2e-6, 2.26)
        with pytest.raises(ValueError):
            PumpGeometry(1.0, 0.0, 2.26)

    @pytest.mark.parametrize("power, mfd, n_mode, name", [
        (1e300, 1.2e-6, 2.26, "power=1e+300"),
        (1e-3, 1.2e-6, 1e-300, "n_mode=1e-300"),
        (1e-3, 1e-150, 1e-300, "n_mode=1e-300"),     # denominator underflows to 0
        (1e-3, 1e100, 1e300, "n_mode=1e+300")])      # denominator overflows to inf
    def test_overflowing_peak_field_rejected_by_name(self, power, mfd, n_mode, name):
        with pytest.raises(ValueError, match=f"peak field overflows .*{re.escape(name)}"):
            peak_field_from_power(PumpGeometry(power, mfd, n_mode))

    @pytest.mark.parametrize("mfd", [1e300, 1e-300, -1.2e-6])
    def test_mfd_whose_square_overflows_or_underflows_rejected_by_name(self, bto, mfd):
        for call in (lambda: PumpGeometry(1e-3, mfd, 2.26),
                     lambda: peak_intensity(1e-3, mfd),
                     lambda: damage_limited_power(bto, mfd)):
            with pytest.raises(ValueError, match="mode-field diameter"):
                call()


class TestDimensionedReferences:
    """The float-only formulas against their Quantity composition.

    Each reference asserts the dimension its composition closes to, so a
    unit slip in the formula's operands shows up here.  The chain formulas
    keep the composition's operand order, so they equal it bit for bit.
    """

    @staticmethod
    def assert_same(got, ref, dim):
        assert ref.dim == dim
        assert type(got) is float
        assert got == ref.value

    @given(st.floats(-1e-9, 1e-9), st.floats(1.0, 4.0), st.floats(1.0, 4.0),
           st.floats(1.0, 4.0))
    def test_eta2_from_deff(self, d_eff, n1, n2, n3):
        ref = (2.0 * Quantity(d_eff, METER_PER_VOLT)) / (
            EPS0_Q * EPS0_Q * (n1 * n1 * n2 * n2 * n3 * n3))
        self.assert_same(eta2_from_deff(d_eff, n1, n2, n3), ref, ETA2)

    @staticmethod
    def band_sum(ns, ps):
        # Left to right from 0.0: sum() compensates its rounding from Python
        # 3.12 on, and the library's band sum does not.
        total = 0.0
        for p, n in zip(ps, ns):
            total += p / (1.0 - 1.0 / (n * n))
        return total

    @given(st.floats(-1e-9, 1e-9), st.tuples(*[st.floats(1.01, 4.0)] * 3),
           st.tuples(*[st.floats(-1.0, 1.0)] * 3))
    def test_q_eff_from_deff(self, d_eff, ns, ps):
        n1, n2, n3 = ns
        ref = -(2.0 * Quantity(d_eff, METER_PER_VOLT)) / (
            EPS0_Q * (n1 * n1 * n2 * n2 * n3 * n3)) * self.band_sum(ns, ps)
        self.assert_same(q_eff_from_deff(d_eff, ns, ps), ref, M2_PER_COULOMB)

    @given(st.floats(-1e12, 1e12), st.tuples(*[st.floats(1.01, 4.0)] * 3),
           st.tuples(*[st.floats(-1.0, 1.0)] * 3))
    def test_q_eff_from_eta2(self, eta2, ns, ps):
        ref = -(EPS0_Q * Quantity(eta2, ETA2)) * self.band_sum(ns, ps)
        self.assert_same(q_eff_from_eta2(eta2, ns, ps), ref, M2_PER_COULOMB)

    def test_band_sum_is_added_left_to_right_on_every_python(self):
        # With n = 2 every denominator is 0.75, so the terms are 1 and two
        # halves of an ulp of 1: added in order they round away, while a
        # compensated sum (sum() from Python 3.12, math.fsum) keeps them.
        ns, ps = (2.0, 2.0, 2.0), (0.75, 0.75 * 2.0 ** -53, 0.75 * 2.0 ** -53)
        terms = [p / 0.75 for p in ps]
        assert self.band_sum(ns, ps) == 1.0 != math.fsum(terms)
        assert q_eff_from_eta2(1.0, ns, ps) == -EPS0 * 1.0
        assert q_eff_from_deff(1e-11, ns, ps) == (
            -(2.0 * 1e-11) / (EPS0 * (2.0 * 2.0 * 2.0 * 2.0 * 2.0 * 2.0)) * 1.0)

    @given(st.floats(-1.0, 1.0), st.floats(-1e-3, 1e-3), st.floats(-1e-3, 1e-3),
           st.floats(-1e-6, 1e-6))
    def test_interaction_density_3wm(self, p_eff, d1, d2, x):
        ref = (Quantity(p_eff, DIMENSIONLESS) * Quantity(d1, COULOMB_PER_M2)
               * Quantity(d2, COULOMB_PER_M2) * Quantity(x, DIMENSIONLESS)
               / (2.0 * EPS0_Q))
        self.assert_same(interaction_density_3wm(p_eff, d1, d2, x), ref, JOULE_PER_M3)

    @given(st.floats(-1e2, 1e2), st.floats(-1e-3, 1e-3), st.floats(-1e-3, 1e-3),
           st.floats(-1e-3, 1e-3), st.floats(-1e-6, 1e-6))
    def test_interaction_density_4wm(self, q_eff, dp, d1, d2, x):
        ref = (Quantity(q_eff, M2_PER_COULOMB) * Quantity(dp, COULOMB_PER_M2)
               * Quantity(d1, COULOMB_PER_M2) * Quantity(d2, COULOMB_PER_M2)
               * Quantity(x, DIMENSIONLESS) / (3.0 * EPS0_Q))
        self.assert_same(interaction_density_4wm(q_eff, dp, d1, d2, x), ref,
                         JOULE_PER_M3)

    @staticmethod
    def assert_close(got, want):
        assert type(got) is float
        assert abs(got - want) <= 1e-15 * abs(want)

    @given(st.floats(0.0, 1e3), st.floats(1e-7, 1e-4), st.floats(1.0, 4.0))
    def test_peak_field(self, power, mfd, n_mode):
        e2 = (16.0 * Quantity(power, WATT)) / (
            n_mode * math.pi * EPS0_Q * C_LIGHT_Q
            * Quantity(mfd, METER) * Quantity(mfd, METER))
        ref = e2.sqrt()
        assert ref.dim == VOLT_PER_METER
        self.assert_close(peak_field_from_power(PumpGeometry(power, mfd, n_mode)),
                          ref.value)

    @given(st.floats(0.0, 1e3), st.floats(1e-7, 1e-4))
    def test_peak_intensity(self, power, mfd):
        area = math.pi * (mfd / 2.0) ** 2
        ref = Quantity(power, WATT) / Quantity(area, METER * METER)
        assert ref.dim == WATT_PER_M2
        self.assert_close(peak_intensity(power, mfd), ref.value)

    @given(st.floats(-1.0, 1.0), st.floats(1e-9, 1e9), st.floats(0.0, 1e9))
    def test_virtual_photoelasticity(self, q_eff, eps_r, field):
        ref = ((2.0 / 3.0) * EPS0_Q * Quantity(q_eff, M2_PER_COULOMB)
               * eps_r * Quantity(field, VOLT_PER_METER))
        assert ref.dim == DIMENSIONLESS
        self.assert_close(virtual_photoelasticity(q_eff, eps_r, field), ref.value)


class TestVirtualPhotoelasticity:
    def test_golden_coefficient(self):
        assert virtual_photoelasticity(2.45e-2, 5.09, 1.0) == pytest.approx(
            7.35e-13, rel=0.02)

    def test_zero_field(self):
        assert virtual_photoelasticity(2.45e-2, 5.09, 0.0) == 0.0

    def test_negative_field_rejected(self):
        with pytest.raises(ValueError):
            virtual_photoelasticity(2.45e-2, 5.09, -1.0)

    @pytest.mark.parametrize("args, name", [
        ((math.nan, 5.09, 1.0), "q_eff"), ((math.inf, 5.09, 1.0), "q_eff"),
        ((2.45e-2, math.nan, 1.0), "eps_r"), ((2.45e-2, -math.inf, 1.0), "eps_r"),
        ((2.45e-2, 5.09, math.nan), "field"), ((2.45e-2, 5.09, math.inf), "field")])
    def test_nonfinite_rejected_by_name(self, args, name):
        with pytest.raises(ValueError, match=name):
            virtual_photoelasticity(*args)

    def test_golden_power_law(self, bto, bto_bands):
        chain = second_order_photoelasticity(bto, bto_bands)
        for p_w in (1e-3, 0.1, 1.0, 6.0):
            E = peak_field_from_power(PumpGeometry(p_w, 1.2e-6, 2.26))
            p_virt = virtual_photoelasticity(chain.q_eff, 5.09, E)
            assert abs(p_virt) == pytest.approx(1.787e-5 * math.sqrt(p_w), rel=0.02)

    def test_strictly_increasing_in_power(self, bto, bto_bands):
        chain = second_order_photoelasticity(bto, bto_bands)
        vals = []
        for p_w in np.linspace(1e-3, 6.0, 50):
            E = peak_field_from_power(PumpGeometry(p_w, 1.2e-6, 2.26))
            vals.append(abs(virtual_photoelasticity(chain.q_eff, 5.09, E)))
        assert np.all(np.diff(vals) > 0)


class TestInteractionDensities:
    def test_zero_fields(self):
        assert interaction_density_3wm(0.77, 0.0, 1e-6, 1e-5) == 0.0
        assert interaction_density_4wm(2.45e-2, 1e-6, 0.0, 1e-6, 1e-5) == 0.0

    def test_hand_evaluation_3wm(self):
        got = interaction_density_3wm(0.77, 1e-6, 1e-6, 1e-5)
        assert got == pytest.approx(0.77e-17 / (2 * EPS0), rel=1e-15)
        assert got == pytest.approx(4.35e-7, rel=1e-3)

    @given(st.floats(-1e-3, 1e-3), st.floats(-1e-3, 1e-3))
    def test_bilinear_3wm(self, a, b):
        base = interaction_density_3wm(0.5, 1e-6, 2e-6, 1e-5)
        scaled = interaction_density_3wm(0.5, a * 1e-6, b * 2e-6, 1e-5)
        assert scaled == pytest.approx(a * b * base, rel=1e-12, abs=1e-300)

    @given(st.floats(-1e2, 1e2), st.floats(-1e-3, 1e-3), st.floats(-1e-3, 1e-3),
           st.floats(-1e-3, 1e-3), st.floats(-1e-6, 1e-6))
    @settings(max_examples=300)
    def test_reduction_identity(self, q, dp, d1, d2, x):
        u4 = interaction_density_4wm(q, dp, d1, d2, x)
        u3 = interaction_density_3wm(2.0 / 3.0 * q * dp, d1, d2, x)
        assert u4 == pytest.approx(u3, rel=1e-12, abs=1e-300)


class TestPowerSweep:
    def test_single_point_reproduces_goldens(self, bto, bto_bands):
        report = power_sweep(bto, bto_bands, [1e-3], 1.2e-6, 2.26)
        row = report.rows[0]
        assert row.peak_field_v_per_m == pytest.approx(7.68e5, rel=0.01)
        assert row.intensity_w_per_m2 == pytest.approx(8.84e8, rel=0.01)
        assert abs(row.p_virt) == pytest.approx(5.65e-7, rel=0.02)
        assert report.p_nominal == 0.77
        assert row.p_virt_over_p_nominal == pytest.approx(abs(row.p_virt) / 0.77,
                                                          rel=1e-15)
        assert row.g_scaled_rad_per_s == pytest.approx(
            PIEZO_OPTOMECHANICAL_BENCHMARK.g0_ref * row.p_virt_over_p_nominal,
            rel=1e-15)

    def test_overflowing_g_scaled_rejected_by_name(self, bto, bto_bands):
        benchmark = CouplingBenchmark(1e300, "huge")
        with pytest.raises(ValueError, match=r"g_scaled overflows .*p_nominal=1e-300"):
            power_sweep(bto, bto_bands, [1e-3], 1.2e-6, 2.26, benchmark=benchmark,
                        p_nominal=1e-300)

    @pytest.mark.parametrize("p_nominal", [math.inf, 0.0, -1.0, math.nan])
    def test_p_nominal_outside_the_positive_reals_is_named(self, bto, bto_bands,
                                                           p_nominal):
        # inf gave 0.0 in every p_virt/p_nominal and g_scaled cell.
        with pytest.raises(ValueError, match=f"^p_nominal must be positive and "
                                             f"finite to form ratios, got {p_nominal}$"):
            power_sweep(bto, bto_bands, [1e-3], 1.2e-6, 2.26, p_nominal=p_nominal)

    def test_zero_power_row(self, bto, bto_bands):
        row = power_sweep(bto, bto_bands, [0.0], 1.2e-6, 2.26).rows[0]
        assert row.peak_field_v_per_m == 0.0
        assert row.intensity_w_per_m2 == 0.0
        assert row.p_virt == 0.0
        assert row.g_scaled_rad_per_s == 0.0

    def test_sqrt_power_fit_exponent(self, bto, bto_bands):
        powers = np.geomspace(1e-3, 6.0, 40)
        report = power_sweep(bto, bto_bands, powers, 1.2e-6, 2.26)
        p_virt = np.array([abs(r.p_virt) for r in report.rows])
        exponent = np.polyfit(np.log(powers), np.log(p_virt), 1)[0]
        assert exponent == pytest.approx(0.5, abs=1e-6)

    def test_monotone_columns(self, bto, bto_bands):
        powers = np.linspace(0.0, 6.0, 25)
        rows = power_sweep(bto, bto_bands, powers, 1.2e-6, 2.26).rows
        for col in ("peak_field_v_per_m", "intensity_w_per_m2",
                    "p_virt_over_p_nominal", "intensity_over_threshold",
                    "g_scaled_rad_per_s"):
            vals = [getattr(r, col) for r in rows]
            assert all(b >= a for a, b in zip(vals, vals[1:])), col

    def test_empty_grid_rejected(self, bto, bto_bands):
        with pytest.raises(ValueError, match="empty"):
            power_sweep(bto, bto_bands, [], 1.2e-6, 2.26)

    def test_grid_beyond_ten_damage_limits_rejected(self, bto, bto_bands):
        with pytest.raises(ValueError, match="power grid"):
            power_sweep(bto, bto_bands, [100.0], 1.2e-6, 2.26)

    def test_csv_contract(self, bto, bto_bands):
        report = power_sweep(bto, bto_bands, [1e-3, 1.0], 1.2e-6, 2.26)
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == POWER_SWEEP_CSV_HEADER
        assert len(lines) == 3
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 1e-3
        assert first[1] == report.rows[0].peak_field_v_per_m   # full precision

    def test_structured_text_round_trips_through_json(self, bto, bto_bands):
        import json
        report = power_sweep(bto, bto_bands, [1e-3], 1.2e-6, 2.26)
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["material"] == "BaTiO3"
        assert doc["chain"]["q_eff_m2_per_c"] == report.chain.q_eff
        assert doc["rows"][0]["p_virt"] == report.rows[0].p_virt
        assert any("extrapolat" in n for n in doc["notes"])

    def test_editing_the_dict_leaves_the_report_unchanged(self, bto, bto_bands):
        # to_dict returned each row's own __dict__: this edit changed the
        # frozen row, its hash and the next to_csv.
        report = power_sweep(bto, bto_bands, [1e-3], 1.2e-6, 2.26)
        row, text = report.rows[0], report.to_csv()
        before = (repr(row), hash(row))
        report.to_dict()["rows"][0]["power_w"] = 99.0
        assert (repr(row), hash(row)) == before
        assert report.to_csv() == text and row.power_w == 1e-3
