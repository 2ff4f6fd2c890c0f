"""Physical constants and a minimal dimension-vector unit layer.

Every numeric interface in this package is plain SI floats.  The classes here
exist to make the *composition* of those floats checkable: an operation that
multiplies a field (V/m) by a second-order photoelasticity (m^2/C) and the
vacuum permittivity (F/m) can assert that the result is dimensionless instead
of silently absorbing a unit bug.  Dimensions are exponent vectors over the
four SI base quantities this domain needs (m, kg, s, A); there is no string
parsing and no unit conversion, SI in and SI out.

Where the check runs: the estimation chain (eta2, both q_eff routes, the
interaction densities) and the per-point formulas (pump field, intensity,
virtual photoelasticity) compute on plain floats.  The tests build each of
them from ``Quantity`` objects in the same operand order, assert the
dimension the composition closes to, and compare the float result with it.
The damage-limited power is the one runtime caller left: the traced
benchmark's power-sweep metric (``bench/worker.py``, ``grid_metrics``) reads
the ``Quantity`` count of each sweep by key, so a sweep must build one.
"""

from __future__ import annotations

import math

from ._record import Record
from .errors import UnitError


EPS0 = 8.8541878128e-12     # vacuum permittivity (F/m), CODATA 2018
C_LIGHT = 2.99792458e8      # vacuum speed of light (m/s)
TWO_PI = 2.0 * math.pi
TWO_PI_C = TWO_PI * C_LIGHT     # vacuum wavelength * angular frequency (m/s)


class Dimension(Record):
    """SI dimension exponents: length, mass, time, electric current."""

    def __init__(self, m: int = 0, kg: int = 0, s: int = 0, a: int = 0):
        self.__dict__.update(m=m, kg=kg, s=s, a=a)

    def __mul__(self, other: "Dimension") -> "Dimension":
        return Dimension(self.m + other.m, self.kg + other.kg,
                         self.s + other.s, self.a + other.a)

    def __truediv__(self, other: "Dimension") -> "Dimension":
        return Dimension(self.m - other.m, self.kg - other.kg,
                         self.s - other.s, self.a - other.a)

    def __pow__(self, n: int) -> "Dimension":
        return Dimension(self.m * n, self.kg * n, self.s * n, self.a * n)

    def root(self, n: int) -> "Dimension":
        if any(e % n for e in (self.m, self.kg, self.s, self.a)):
            raise UnitError(f"dimension {self} has no integer {n}-th root")
        return Dimension(self.m // n, self.kg // n, self.s // n, self.a // n)

    def __str__(self) -> str:
        parts = [f"{name}^{e}" for name, e in
                 (("m", self.m), ("kg", self.kg), ("s", self.s), ("A", self.a)) if e]
        return "*".join(parts) if parts else "1"


DIMENSIONLESS = Dimension()
METER = Dimension(m=1)
METER_PER_SECOND = Dimension(m=1, s=-1)
WATT = Dimension(m=2, kg=1, s=-3)
WATT_PER_M2 = Dimension(kg=1, s=-3)
JOULE_PER_M3 = Dimension(m=-1, kg=1, s=-2)
VOLT_PER_METER = Dimension(m=1, kg=1, s=-3, a=-1)
FARAD_PER_METER = Dimension(m=-3, kg=-1, s=4, a=2)
COULOMB_PER_M2 = Dimension(m=-2, s=1, a=1)    # electric displacement D
M2_PER_COULOMB = Dimension(m=2, s=-1, a=-1)   # second-order photoelasticity
METER_PER_VOLT = Dimension(m=-1, kg=-1, s=3, a=1)  # d_eff
# eta^(2) in E = eta^(2) D^2:  (V/m) / (C/m^2)^2
ETA2 = VOLT_PER_METER / (COULOMB_PER_M2 ** 2)


class Quantity(Record):
    """A float tagged with its SI dimension; arithmetic propagates both."""

    def __init__(self, value: float, dim: Dimension = DIMENSIONLESS):
        self.__dict__.update(value=value, dim=dim)

    def __mul__(self, other: "Quantity | float") -> "Quantity":
        if isinstance(other, Quantity):
            return Quantity(self.value * other.value, self.dim * other.dim)
        return Quantity(self.value * other, self.dim)

    __rmul__ = __mul__

    def __truediv__(self, other: "Quantity | float") -> "Quantity":
        if isinstance(other, Quantity):
            return Quantity(self.value / other.value, self.dim / other.dim)
        return Quantity(self.value / other, self.dim)

    def __rtruediv__(self, other: float) -> "Quantity":
        return Quantity(other / self.value, DIMENSIONLESS / self.dim)

    def __add__(self, other: "Quantity") -> "Quantity":
        if self.dim != other.dim:
            raise UnitError(f"cannot add {self.dim} to {other.dim}")
        return Quantity(self.value + other.value, self.dim)

    def __sub__(self, other: "Quantity") -> "Quantity":
        if self.dim != other.dim:
            raise UnitError(f"cannot subtract {other.dim} from {self.dim}")
        return Quantity(self.value - other.value, self.dim)

    def __neg__(self) -> "Quantity":
        return Quantity(-self.value, self.dim)

    def __pow__(self, n: int) -> "Quantity":
        return Quantity(self.value ** n, self.dim ** n)

    def sqrt(self) -> "Quantity":
        return Quantity(math.sqrt(self.value), self.dim.root(2))

    def expect(self, dim: Dimension, what: str = "result") -> float:
        """Return the bare value after asserting the dimension is ``dim``."""
        if self.dim != dim:
            raise UnitError(f"{what} has dimension {self.dim}, expected {dim}")
        return self.value


EPS0_Q = Quantity(EPS0, FARAD_PER_METER)
C_LIGHT_Q = Quantity(C_LIGHT, METER_PER_SECOND)
