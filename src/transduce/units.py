"""Physical constants and the one dimension check the library runs.

Every numeric interface in this package is plain SI floats.  ``Dimension``
is an exponent vector over the four SI base quantities this domain needs
(m, kg, s, A), and ``Quantity`` is a float tagged with one; there is no
string parsing and no unit conversion, SI in and SI out.

What runs: one composition, in ``estimator.damage_limited_power``, which
multiplies a damage threshold (W/m^2) by a mode area (m^2) and asserts with
``expect`` that the product closes to ``WATT``.  It stays on ``Quantity``
because the traced benchmark's power-sweep metric (``bench/worker.py``,
``grid_metrics``) reads the ``Quantity`` count of each sweep by key, so a
sweep must build one.  So ``Quantity`` has only ``Quantity * Quantity`` and
``expect``, and any other operator raises TypeError.  Every other formula
(the Miller chain, the pump field and intensity, p_virt, the interaction
densities) computes on plain floats; the tests check each of them against a
dimensioned reference built in the same operand order, from the fuller
algebra of ``tests/dimensioned.py``, which extends these classes.
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
        return type(self)(self.m + other.m, self.kg + other.kg,
                          self.s + other.s, self.a + other.a)

    def __str__(self) -> str:
        parts = [f"{name}^{e}" for name, e in
                 (("m", self.m), ("kg", self.kg), ("s", self.s), ("A", self.a)) if e]
        return "*".join(parts) if parts else "1"


METER = Dimension(m=1)
WATT = Dimension(m=2, kg=1, s=-3)
WATT_PER_M2 = Dimension(kg=1, s=-3)


class Quantity(Record):
    """A float tagged with its SI dimension; a product multiplies both."""

    def __init__(self, value: float, dim: Dimension):
        self.__dict__.update(value=value, dim=dim)

    def __mul__(self, other: "Quantity") -> "Quantity":
        if not isinstance(other, Quantity):
            return NotImplemented
        return type(self)(self.value * other.value, self.dim * other.dim)

    def expect(self, dim: Dimension, what: str = "result") -> float:
        """Return the bare value after asserting the dimension is ``dim``."""
        if self.dim != dim:
            raise UnitError(f"{what} has dimension {self.dim}, expected {dim}")
        return self.value
