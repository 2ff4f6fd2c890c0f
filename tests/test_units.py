import math

import pytest

from transduce import units
from transduce.errors import UnitError
from transduce.estimator import _SQUARE_METER, _mode_area, damage_limited_power
from transduce.units import C_LIGHT, EPS0

from dimensioned import (DIMENSIONLESS, Dimension, EPS0_Q, FARAD_PER_METER,
                         M2_PER_COULOMB, METER, Quantity, VOLT_PER_METER, WATT)


def test_constants_are_the_codata_values():
    assert EPS0 == 8.8541878128e-12
    assert C_LIGHT == 2.99792458e8


def test_dimension_algebra():
    assert METER * METER == Dimension(m=2)
    assert METER / METER == DIMENSIONLESS
    assert (METER ** 3).root(3) == METER
    # V = W/A, so V/m == W / (A * m)
    assert VOLT_PER_METER == WATT / Dimension(a=1) / METER
    with pytest.raises(UnitError):
        Dimension(m=1).root(2)


def test_quantity_arithmetic_and_mismatch():
    a = Quantity(2.0, METER)
    b = Quantity(3.0, METER)
    assert (a + b).value == 5.0
    assert (a * b).dim == Dimension(m=2)
    assert (a / b).dim == DIMENSIONLESS
    assert (2.0 * a).value == 4.0
    assert (1.0 / a).dim == Dimension(m=-1)
    with pytest.raises(UnitError):
        a + Quantity(1.0, WATT)
    with pytest.raises(UnitError):
        a.expect(WATT)


def test_quantity_sqrt_requires_even_exponents():
    q = Quantity(4.0, Dimension(m=2))
    assert q.sqrt().value == 2.0 and q.sqrt().dim == METER
    with pytest.raises(UnitError):
        Quantity(4.0, METER).sqrt()


def test_virtual_photoelasticity_composition_is_dimensionless():
    # eps0 (F/m) * q (m^2/C) * eps_r (1) * E (V/m) must close to 1
    composed = (EPS0_Q * Quantity(2.45e-2, M2_PER_COULOMB)
                * 5.09 * Quantity(7.68e5, VOLT_PER_METER))
    assert composed.dim == DIMENSIONLESS
    assert math.isfinite(composed.expect(DIMENSIONLESS))
    assert FARAD_PER_METER * M2_PER_COULOMB * VOLT_PER_METER == DIMENSIONLESS


class TestRuntimeSurface:
    """What ``transduce.units`` ships: the constants and the one composition
    the library runs, in ``damage_limited_power``."""

    def test_the_module_defines_only_what_the_library_runs(self):
        imported = {"annotations", "math", "Record", "UnitError"}
        defined = {name for name in vars(units) if not name.startswith("_")} - imported
        assert defined == {"EPS0", "C_LIGHT", "TWO_PI", "TWO_PI_C", "Dimension",
                           "Quantity", "METER", "WATT", "WATT_PER_M2"}

    def test_the_damage_limited_power_composition_closes_to_watt(self, bto):
        power = (units.Quantity(bto.damage_threshold, units.WATT_PER_M2)
                 * units.Quantity(_mode_area(1.2e-6), _SQUARE_METER))
        assert type(power) is units.Quantity and power.dim == units.WATT
        assert damage_limited_power(bto, 1.2e-6) == power.expect(units.WATT, "power")

    def test_a_mismatch_names_both_dimensions(self):
        intensity = units.Quantity(5.4e12, units.WATT_PER_M2)
        with pytest.raises(UnitError, match=r"^power has dimension kg\^1\*s\^-3, "
                                            r"expected m\^2\*kg\^1\*s\^-3$"):
            intensity.expect(units.WATT, "power")

    @pytest.mark.parametrize("op", [
        lambda q: q * 0.5, lambda q: 0.5 * q, lambda q: q / 2.0, lambda q: 2.0 / q,
        lambda q: q + q, lambda q: -q],
        ids=["q*0.5", "0.5*q", "q/2.0", "2.0/q", "q+q", "-q"])
    def test_every_other_operator_raises_type_error(self, op):
        # q / 2.0 raised AttributeError while q * 0.5 and 2.0 / q worked.
        with pytest.raises(TypeError):
            op(units.Quantity(2.0, units.METER))
