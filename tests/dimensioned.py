"""The dimensioned references of the tests: ``transduce.units`` extended.

The library runs one unit composition, so its ``Dimension`` keeps only
``*`` and ``str``, and its ``Quantity`` only ``Quantity * Quantity`` and
``expect``.  The tests build a reference for each float formula from
quantities, in the formula's operand order, and need more: here
``Dimension`` gains ``/``, ``**`` and ``root``, and ``Quantity`` gains the
scalar ``*`` (either side), ``/``, ``float / Quantity``, ``+``, unary ``-``
and ``sqrt``.  A record equals only a record of its own class, so every
named dimension and constant below is an instance of these classes, the
three the library names too.
"""

from __future__ import annotations

import math

from transduce import units
from transduce.errors import UnitError
from transduce.units import C_LIGHT, EPS0


class Dimension(units.Dimension):
    """A runtime dimension that also divides, raises to a power and roots."""

    def __truediv__(self, other: "Dimension") -> "Dimension":
        return Dimension(self.m - other.m, self.kg - other.kg,
                         self.s - other.s, self.a - other.a)

    def __pow__(self, n: int) -> "Dimension":
        return Dimension(self.m * n, self.kg * n, self.s * n, self.a * n)

    def root(self, n: int) -> "Dimension":
        if any(e % n for e in (self.m, self.kg, self.s, self.a)):
            raise UnitError(f"dimension {self} has no integer {n}-th root")
        return Dimension(self.m // n, self.kg // n, self.s // n, self.a // n)


DIMENSIONLESS = Dimension()
METER, WATT, WATT_PER_M2 = (Dimension(**vars(d))
                            for d in (units.METER, units.WATT, units.WATT_PER_M2))
METER_PER_SECOND = Dimension(m=1, s=-1)
JOULE_PER_M3 = Dimension(m=-1, kg=1, s=-2)
VOLT_PER_METER = Dimension(m=1, kg=1, s=-3, a=-1)
FARAD_PER_METER = Dimension(m=-3, kg=-1, s=4, a=2)
COULOMB_PER_M2 = Dimension(m=-2, s=1, a=1)    # electric displacement D
M2_PER_COULOMB = Dimension(m=2, s=-1, a=-1)   # second-order photoelasticity
METER_PER_VOLT = Dimension(m=-1, kg=-1, s=3, a=1)  # d_eff
# eta^(2) in E = eta^(2) D^2:  (V/m) / (C/m^2)^2
ETA2 = VOLT_PER_METER / (COULOMB_PER_M2 ** 2)


class Quantity(units.Quantity):
    """A runtime quantity with the scalar and additive algebra of the
    references."""

    def __mul__(self, other: "Quantity | float") -> "Quantity":
        if isinstance(other, units.Quantity):
            return super().__mul__(other)
        return Quantity(self.value * other, self.dim)

    __rmul__ = __mul__

    def __truediv__(self, other: "Quantity") -> "Quantity":
        return Quantity(self.value / other.value, self.dim / other.dim)

    def __rtruediv__(self, other: float) -> "Quantity":
        return Quantity(other / self.value, DIMENSIONLESS / self.dim)

    def __add__(self, other: "Quantity") -> "Quantity":
        if self.dim != other.dim:
            raise UnitError(f"cannot add {self.dim} to {other.dim}")
        return Quantity(self.value + other.value, self.dim)

    def __neg__(self) -> "Quantity":
        return Quantity(-self.value, self.dim)

    def sqrt(self) -> "Quantity":
        return Quantity(math.sqrt(self.value), self.dim.root(2))


EPS0_Q = Quantity(EPS0, FARAD_PER_METER)
C_LIGHT_Q = Quantity(C_LIGHT, METER_PER_SECOND)
