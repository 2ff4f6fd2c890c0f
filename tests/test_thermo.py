import math
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from transduce.thermo import (FreeEnergyModel, VectorFreeEnergyModel,
                              efield_of, efield_of_vector, eval_free_energy,
                              eval_free_energy_vector, extract_eta2,
                              fd_partial, stress_of, stress_of_vector,
                              verify_relations, verify_relations_pair,
                              verify_relations_vector)
from transduce.units import EPS0

coef = st.floats(-10.0, 10.0, allow_nan=False)


def random_model(rng):
    return FreeEnergyModel(*rng.uniform(-10, 10, size=6))


class TestEvalFreeEnergy:
    def test_origin_is_zero(self):
        m = FreeEnergyModel(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        assert eval_free_energy(m, 0.0, 0.0) == 0.0

    def test_pure_elastic(self):
        m = FreeEnergyModel(c=1.0)
        assert eval_free_energy(m, 2.0, 0.0) == 2.0

    @given(coef, coef, coef, coef, coef, coef,
           st.floats(-2, 2), st.floats(-2, 2))
    @settings(max_examples=200)
    @example(0.0, 0.0, 0.0, 0.0, -1.375, 1.4375, 0.52, 1.4375)   # terms cancel
    def test_term_by_term_oracle(self, c, h, e1, e2, p, q, x, D):
        m = FreeEnergyModel(c, h, e1, e2, p, q)
        terms = [c * x * x / 2.0,
                 h * x * D,
                 e1 * D * D / 2.0,
                 e2 * D * D * D / 3.0,
                 p * x * D * D / (2.0 * EPS0),
                 q * x * D * D * D / (3.0 * EPS0)]
        total = sum(terms)
        got = eval_free_energy(m, x, D)
        # The terms can cancel, so the rounding error of any summation order
        # is bounded relative to the sum of their magnitudes, not to the total.
        assert abs(got - total) <= 1e-14 * sum(map(abs, terms)) + 1e-280

    def test_nonfinite_coefficient_rejected(self):
        with pytest.raises(ValueError):
            FreeEnergyModel(c=math.inf)


class TestClosedFormDerivatives:
    def test_zero_model(self):
        m = FreeEnergyModel()
        assert stress_of(m, 1.0, 2.0) == 0.0
        assert efield_of(m, 1.0, 2.0) == 0.0

    def test_piezoelectric_pair(self):
        m = FreeEnergyModel(h=3.5)
        assert stress_of(m, 0.7, 2.0) == 3.5 * 2.0     # X = h D
        assert efield_of(m, 0.7, 2.0) == 3.5 * 0.7     # E = h x

    def test_closed_form_matches_fd_at_random_points(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            m = random_model(rng)
            x, D = rng.uniform(-2, 2, size=2)
            a = lambda xx, dd: eval_free_energy(m, xx, dd)
            fd_x = fd_partial(a, (x, D), (1, 0))
            fd_d = fd_partial(a, (x, D), (0, 1))
            assert fd_x == pytest.approx(stress_of(m, x, D), rel=1e-8, abs=1e-4)
            assert fd_d == pytest.approx(efield_of(m, x, D), rel=1e-8, abs=1e-4)


class TestFdPartial:
    def test_third_derivative_of_cubic(self):
        f = lambda x, D: D ** 3
        for point in (0.0, 0.5, -1.0, 3.0):
            assert fd_partial(f, (0.0, point), (0, 3)) == pytest.approx(6.0, rel=1e-6)

    def test_mixed_monomial(self):
        f = lambda x, D: x * D ** 2
        for point in ((0.0, 0.0), (1.0, -2.0), (-0.3, 0.7)):
            assert fd_partial(f, point, (1, 2)) == pytest.approx(2.0, rel=1e-6)

    def test_first_derivative_reproduces_efield(self):
        m = FreeEnergyModel(1.0, -2.0, 3.0, 0.5, 4.0, -1.5)
        a = lambda x, D: eval_free_energy(m, x, D)
        for point in ((0.0, 0.0), (0.3, -0.4), (1.0, 1.0)):
            got = fd_partial(a, point, (0, 1))
            assert got == pytest.approx(efield_of(m, *point), rel=1e-8)

    @given(st.floats(-3, 3), st.integers(0, 3), st.integers(1, 3))
    @settings(max_examples=200)
    def test_monomial_exactness_in_d(self, point, n_d, deg):
        f = lambda x, D: D ** deg
        k = n_d
        c = 1.0
        for i in range(k):
            c *= deg - i
        true = c * point ** (deg - k) if deg > k else (c if deg == k else 0.0)
        got = fd_partial(f, (0.0, point), (0, k))
        if true == 0.0:
            assert abs(got) < 1e-10 * max(1.0, abs(point)) ** deg
        else:
            assert got == pytest.approx(true, rel=1e-10)

    def test_order_caps(self):
        f = lambda x, D: x * D
        with pytest.raises(ValueError):
            fd_partial(f, (0.0, 0.0), (2, 0))
        with pytest.raises(ValueError):
            fd_partial(f, (0.0, 0.0), (0, 4))
        with pytest.raises(ValueError):
            fd_partial(f, (0.0, 0.0), (-1, 0))

    def test_zeroth_order_is_evaluation(self):
        f = lambda x, D: x + 2 * D
        assert fd_partial(f, (1.0, 2.0), (0, 0)) == 5.0


class TestExtractEta2:
    def test_strain_independent(self):
        m = FreeEnergyModel(eta2=3.0)
        for x in (0.0, -1.0, 0.25, 2.0):
            assert extract_eta2(m, x) == pytest.approx(3.0, rel=1e-12)

    def test_slope_is_q_over_eps0(self):
        q0 = 2.5
        m = FreeEnergyModel(eta2=0.0, q=q0)
        slope = (extract_eta2(m, 1e-3) - extract_eta2(m, -1e-3)) / 2e-3
        assert slope == pytest.approx(q0 / EPS0, rel=1e-9)

    def test_zero_model(self):
        assert extract_eta2(FreeEnergyModel(), 0.7) == 0.0

    def test_recovers_injected_coefficient_to_1e10(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            m = random_model(rng)
            if m.eta2 == 0.0:
                continue
            assert extract_eta2(m, 0.0) == pytest.approx(m.eta2, rel=1e-10)


class TestVerifyRelations:
    def test_zero_model_residuals_exactly_zero(self):
        rep = verify_relations(FreeEnergyModel(), tol=1e-6)
        assert rep.order1_residual == 0.0
        assert rep.order2_residual == 0.0
        assert rep.order3_residual == 0.0
        assert rep.factor2_residual == 0.0
        assert rep.all_passed

    def test_random_models_pass(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            rep = verify_relations(random_model(rng), tol=1e-6)
            assert rep.all_passed, rep.to_dict()

    def test_report_fields(self):
        rep = verify_relations(FreeEnergyModel(1, 2, 3, 4, 5, 6), tol=1e-6)
        d = rep.to_dict()
        assert d["tol"] == 1e-6
        assert d["fd_step_used"] == 0.25
        assert d["all_passed"]

    def test_adversarial_two_model_pair_fails_order1(self):
        m1 = FreeEnergyModel(c=1.0, h=1.0, eta1=2.0, eta2=3.0, p=4.0, q=5.0)
        m2 = FreeEnergyModel(c=1.0, h=2.0, eta1=2.0, eta2=3.0, p=4.0, q=5.0)
        rep = verify_relations_pair(
            lambda x, D: stress_of(m1, x, D),
            lambda x, D: efield_of(m2, x, D), tol=1e-6)
        assert rep.order1_residual > 1e-2
        assert not rep.order1_passed
        assert not rep.all_passed

    def test_adversarial_p_mismatch_fails_order2(self):
        m1 = FreeEnergyModel(h=1.0, p=4.0, q=5.0)
        m2 = FreeEnergyModel(h=1.0, p=8.0, q=5.0)
        rep = verify_relations_pair(
            lambda x, D: stress_of(m1, x, D),
            lambda x, D: efield_of(m2, x, D), tol=1e-6)
        assert rep.order1_passed
        assert not rep.order2_passed

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            verify_relations(FreeEnergyModel(), tol=0.0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_non_finite_tolerance_rejected(self, tol):
        # An infinite tolerance would pass any finite residual.
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            verify_relations(FreeEnergyModel(), tol=tol)

    def test_third_stress_derivative_is_2q_over_eps0(self):
        q0 = 4.2
        m = FreeEnergyModel(q=q0)
        d3 = fd_partial(lambda x, D: stress_of(m, x, D), (0.0, 0.0), (0, 3))
        assert d3 == pytest.approx(2.0 * q0 / EPS0, rel=1e-10)


class TestVectorMode:
    def _random_vector_model(self, rng):
        return VectorFreeEnergyModel(
            c=rng.uniform(-10, 10),
            h=rng.uniform(-10, 10, 2),
            eta1=rng.uniform(-10, 10, (2, 2)),
            eta2=rng.uniform(-10, 10, (2, 2, 2)),
            p=rng.uniform(-10, 10, (2, 2)),
            q=rng.uniform(-10, 10, (2, 2, 2)))

    def test_symmetrized_on_construction(self):
        rng = np.random.default_rng(0)
        m = self._random_vector_model(rng)
        close = lambda a, b: a == pytest.approx(b, rel=1e-12, abs=1e-12)
        pairs, triples = product(range(2), repeat=2), list(product(range(2), repeat=3))
        assert all(close(m.eta1[i][j], m.eta1[j][i]) for i, j in pairs)
        assert all(close(m.eta2[i][j][k], m.eta2[i][k][j]) for i, j, k in triples)
        assert all(close(m.eta2[i][j][k], m.eta2[j][i][k]) for i, j, k in triples)
        assert all(close(m.q[i][j][k], m.q[k][j][i]) for i, j, k in triples)

    @pytest.mark.parametrize("seed", range(20))
    def test_coefficients_are_numpys_permutation_average_bit_for_bit(self, seed):
        # The average numpy formed, summing the transposes into zeros in
        # itertools.permutations order; every bit of it is kept.
        def perm_average(a):
            out = np.zeros_like(a)
            for perm in permutations(range(a.ndim)):
                out += np.transpose(a, perm)
            return out / math.factorial(a.ndim)

        rng = np.random.default_rng(seed)
        tables = {"h": (2,), "eta1": (2, 2), "eta2": (2, 2, 2), "p": (2, 2), "q": (2, 2, 2)}
        given = {name: rng.uniform(-10, 10, shape) * 10.0 ** rng.integers(-8, 9, shape)
                 for name, shape in tables.items()}
        m = VectorFreeEnergyModel(c=rng.uniform(-10, 10), **given)
        for name, a in given.items():
            want = a if a.ndim == 1 else perm_average(a)
            assert np.asarray(getattr(m, name)).tobytes() == want.tobytes(), name

    def test_coefficients_are_plain_floats_in_nested_pairs(self):
        m = self._random_vector_model(np.random.default_rng(3))
        def leaves(t, rank):
            if rank == 0:
                return [t]
            assert type(t) is tuple and len(t) == 2
            return [v for row in t for v in leaves(row, rank - 1)]
        for name, rank in zip(m._fields, (0, 1, 2, 3, 2, 3)):
            assert {type(v) for v in leaves(getattr(m, name), rank)} == {float}, name

    def test_field_is_a_pair_of_plain_floats(self):
        m = self._random_vector_model(np.random.default_rng(4))
        for D in ((0.2, -0.5), [0.2, -0.5], np.array([0.2, -0.5])):
            e = efield_of_vector(m, 0.3, D)
            assert type(e) is tuple and [type(v) for v in e] == [float, float]
            assert e == efield_of_vector(m, 0.3, (0.2, -0.5))
        for f in (eval_free_energy_vector, stress_of_vector):
            assert type(f(m, 0.3, np.array([0.2, -0.5]))) is float

    def test_numpy_scalar_strain_gives_plain_floats_with_the_same_bits(self):
        # A numpy scalar x (or D) gave np.float64 fields, which numpy 2
        # prints as np.float64(...).
        m = self._random_vector_model(np.random.default_rng(4))
        for f in (efield_of_vector, eval_free_energy_vector, stress_of_vector):
            got, want = f(m, np.float64(0.3), (0.2, -0.5)), f(m, 0.3, (0.2, -0.5))
            assert repr(got) == repr(want)
            assert repr(f(m, 0.3, (np.float64(0.2), -0.5))) == repr(want)
        s = FreeEnergyModel(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        for f in (eval_free_energy, stress_of, efield_of):
            for x, D in ((np.float64(0.3), 0.7), (0.3, np.float64(0.7))):
                got = f(s, x, D)
                assert type(got) is float and got == f(s, 0.3, 0.7)
        got = extract_eta2(s, np.float64(0.3))
        assert type(got) is float and got == extract_eta2(s, 0.3)

    def test_gradients_match_fd_of_potential(self):
        rng = np.random.default_rng(1)
        m = self._random_vector_model(rng)
        x = 0.3
        D = np.array([0.2, -0.5])
        h = 1e-6
        a0 = eval_free_energy_vector(m, x, D)
        fd_x = (eval_free_energy_vector(m, x + h, D) - eval_free_energy_vector(m, x - h, D)) / (2 * h)
        assert fd_x == pytest.approx(stress_of_vector(m, x, D), rel=1e-6)
        for k in range(2):
            Dp, Dm = D.copy(), D.copy()
            Dp[k] += h
            Dm[k] -= h
            fd_d = (eval_free_energy_vector(m, x, Dp) - eval_free_energy_vector(m, x, Dm)) / (2 * h)
            assert fd_d == pytest.approx(efield_of_vector(m, x, D)[k], rel=1e-5)
        assert math.isfinite(a0)

    def test_relations_hold_componentwise(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            rep = verify_relations_vector(self._random_vector_model(rng), tol=1e-6)
            assert rep.all_passed, rep.to_dict()

    def test_overflowed_difference_fails_in_both_modes(self):
        # The differences of h * D overflow to NaN; a fold with max(0.0, nan)
        # would report 0.0 and PASS.
        vec = VectorFreeEnergyModel(c=1.0, h=[1e308, 1e308], eta1=np.eye(2),
                                    eta2=np.zeros((2, 2, 2)), p=np.zeros((2, 2)),
                                    q=np.zeros((2, 2, 2)))
        scalar = FreeEnergyModel(c=1.0, h=1e308, eta1=1.0)
        for rep in (verify_relations_vector(vec), verify_relations(scalar)):
            assert math.isnan(rep.order1_residual)
            assert not rep.order1_passed
            assert not rep.all_passed


ZEROS = {"c": 0.0, "h": [0.0] * 2, "eta1": [0.0] * 4, "eta2": [0.0] * 8,
         "p": [0.0] * 4, "q": [0.0] * 8}


# (argument, value, message): each malformed coefficient is named.
BAD_COEFFICIENTS = [
    ("c", math.nan, "coefficient c must be a finite number, got nan"),
    ("c", math.inf, "coefficient c must be a finite number, got inf"),
    ("c", "1.0", "coefficient c must be a finite number, got '1.0'"),
    ("c", [1.0], "coefficient c must be a finite number, got [1.0]"),
    ("c", 10 ** 400, f"coefficient c must be a finite number, got {10 ** 400}"),
    ("h", [1.0, 2.0, 3.0], "coefficient h must be 2 finite numbers, got [1.0, 2.0, 3.0]"),
    ("h", [[1.0, 2.0]], "coefficient h must be 2 finite numbers, got [[1.0, 2.0]]"),
    ("h", [1.0, -math.inf], "coefficient h must be 2 finite numbers, got [1.0, -inf]"),
    ("eta1", [1.0, 2.0, 3.0], "coefficient eta1 must be 4 finite numbers, got [1.0, 2.0, 3.0]"),
    ("eta1", [[1.0, None], [0.0, 1.0]],
     "coefficient eta1 must be 4 finite numbers, got [[1.0, None], [0.0, 1.0]]"),
    # Finite entries whose symmetrized average overflows.
    ("p", [[1e308, 1e308], [1e308, 1e308]],
     "coefficient p must be 4 finite numbers, got [[1e+308, 1e+308], [1e+308, 1e+308]]"),
    ("eta2", [0.0] * 7 + [math.nan],
     f"coefficient eta2 must be 8 finite numbers, got {[0.0] * 7 + [math.nan]}"),
    # A string is iterable at every depth; it is read as no number, not
    # recursed into without end.
    ("q", "abcdefgh", "coefficient q must be 8 finite numbers, got 'abcdefgh'"),
    ("q", ["1"] * 8, f"coefficient q must be 8 finite numbers, got {['1'] * 8}"),
    ("q", [1j] * 8, f"coefficient q must be 8 finite numbers, got {[1j] * 8}"),
]


@pytest.mark.parametrize("name, value, message", BAD_COEFFICIENTS,
                         ids=[f"{n}-{i}" for i, (n, *_) in enumerate(BAD_COEFFICIENTS)])
def test_malformed_vector_coefficient_is_named(name, value, message):
    with pytest.raises(ValueError) as exc:
        VectorFreeEnergyModel(**{**ZEROS, name: value})
    assert str(exc.value) == message


def test_vector_model_stores_c_as_a_plain_float():
    m = VectorFreeEnergyModel(**{**ZEROS, "c": np.float64(2.5)})
    assert type(m.c) is float and m.c == 2.5


def test_scalar_model_names_a_coefficient_that_is_no_number():
    with pytest.raises(ValueError, match="^coefficient eta2 must be a finite number, got 'x'$"):
        FreeEnergyModel(eta2="x")
