import math

import pytest

from transduce.errors import UnitError
from transduce.units import (C_LIGHT, DIMENSIONLESS, Dimension, EPS0, EPS0_Q,
                             FARAD_PER_METER, M2_PER_COULOMB, METER, Quantity,
                             VOLT_PER_METER, WATT)


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
