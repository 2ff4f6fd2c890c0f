"""Numerical certification of the stress/field Maxwell-relation ladder.

A constitutive free-energy density A(x, D) couples one strain component x to
the electric displacement D.  Its two first derivatives are the stress
X = dA/dx and the field E = dA/dD, and equality of mixed partials of A forces
three identities between them:

    order 1:  dX/dD          = dE/dx            (piezoelectric pair)
    order 2:  d2X/dD2        = d2E/dx dD        (electrostriction / photoelasticity)
    order 3:  d3X/dD3        = d3E/dx dD2       (cubic electrostriction)

plus the factor-of-two form of the order-3 identity,
d3X/dD3 = 2 * d/dx[eta2(x)], where eta2(x) = (1/2) d2E/dD2 at D = 0 is the
second-order inverse susceptibility at fixed strain.  The factor of two is a
product-rule consequence of E = eta(D) D and is exactly what makes the cubic
electrostriction coefficient twice the strain derivative of eta2.

The polynomial A used here is

    A = (1/2) c x^2 + h x D + (1/2) eta1 D^2 + (1/3) eta2 D^3
        + (1/(2 eps0)) p x D^2 + (1/(3 eps0)) q x D^3

whose coefficient placement is fixed by derivative identities, not by any
Taylor-prefactor convention: eta1(x) = dE/dD|_{D=0} = eta1 + (p/eps0) x and
eta2(x) = eta2 + (q/eps0) x, so the stored p and q are exactly
eps0 * d(eta1)/dx and eps0 * d(eta2)/dx of the model, and the third stress
derivative is 2q/eps0.

Everything is verified by central finite differences with one level of
Richardson refinement.  Within the degree caps (quadratic in x, cubic in D)
truncation vanishes identically, so step sizes are chosen purely against
rounding.  The default step is large (0.25 times the coordinate scale),
which keeps the differenced signal far above the cancellation floor; the one
exception is an un-nested first D-derivative, which uses eps_machine^(1/3)
so that the 1/eps0-scaled quadratic and cubic terms cannot pollute an O(1)
linear coefficient (the piezoelectric term in dX/dD).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import TYPE_CHECKING

from .units import EPS0

if TYPE_CHECKING:
    import numpy as np

_EPS_MACHINE = sys.float_info.epsilon

# Step scales.  The large scale is the default: within the degree caps the
# stencils are exact for polynomials, so bigger steps only reduce rounding
# noise.  The one exception is an un-nested first D-derivative, where a small
# O(1) target (the piezoelectric coefficient) must be separated from
# 1/eps0-scaled quadratic and cubic terms; there a small step shrinks the
# contamination faster than the signal.  Nested passes never face that case
# (differentiating in x first removes every term without the 1/eps0 scale),
# and a small inner step would poison the outer stencil with amplified noise.
FD_STEP_LARGE = 0.25
FD_STEP_SMALL = _EPS_MACHINE ** (1.0 / 3.0)
FD_STEP_SCALES: dict[int, float] = {1: FD_STEP_SMALL, 2: FD_STEP_LARGE,
                                    3: FD_STEP_LARGE}

MAX_ORDER_X = 1
MAX_ORDER_D = 3


def _diff(f, at: float, order: int, scale: float | None = None) -> float:
    """Central difference of ``order`` with one Richardson level at ``at``."""
    if order == 0:
        return f(at)
    h = (FD_STEP_SCALES[order] if scale is None else scale) * max(1.0, abs(at))

    def base(hh: float) -> float:
        if order == 1:
            return (f(at + hh) - f(at - hh)) / (2.0 * hh)
        if order == 2:
            return (f(at + hh) - 2.0 * f(at) + f(at - hh)) / (hh * hh)
        return (f(at + 2.0 * hh) - 2.0 * f(at + hh)
                + 2.0 * f(at - hh) - f(at - 2.0 * hh)) / (2.0 * hh ** 3)

    return (4.0 * base(h) - base(2.0 * h)) / 3.0


def fd_partial(f, point: tuple[float, float], orders: tuple[int, int]) -> float:
    """Mixed partial d^(nx+nd) f / dx^nx dD^nd of a scalar field f(x, D).

    ``orders`` = (nx, nd) with nx <= 1 and nd <= 3, the degrees present in
    the free-energy models here.  Within those caps the estimate is exact for
    polynomials up to rounding, independent of the step size.
    """
    nx, nd = orders
    if not (0 <= nx <= MAX_ORDER_X):
        raise ValueError(f"x-derivative order must be 0..{MAX_ORDER_X}, got {nx}")
    if not (0 <= nd <= MAX_ORDER_D):
        raise ValueError(f"D-derivative order must be 0..{MAX_ORDER_D}, got {nd}")
    x0, d0 = point
    if nx == 0 and nd == 0:
        return f(x0, d0)
    if nx == 0:
        return _diff(lambda d: f(x0, d), d0, nd)
    if nd == 0:
        return _diff(lambda x: f(x, d0), x0, nx, scale=FD_STEP_LARGE)
    return _diff(lambda x: _diff(lambda d: f(x, d), d0, nd, scale=FD_STEP_LARGE),
                 x0, nx, scale=FD_STEP_LARGE)


@dataclass(frozen=True)
class FreeEnergyModel:
    """Scalar constitutive model; see the module docstring for the polynomial.

    Units: c in Pa, h in V/m per unit strain-displacement, eta1 and eta2 the
    inverse-susceptibility coefficients, p dimensionless, q in m^2/C.
    A(0, 0) = 0 by construction and the model is smooth everywhere.
    """

    c: float = 0.0
    h: float = 0.0
    eta1: float = 0.0
    eta2: float = 0.0
    p: float = 0.0
    q: float = 0.0

    def __post_init__(self):
        for name in ("c", "h", "eta1", "eta2", "p", "q"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"coefficient {name} must be finite")


def eval_free_energy(m: FreeEnergyModel, x: float, D: float) -> float:
    """The free-energy density A(x, D) in J/m^3."""
    return (0.5 * m.c * x * x
            + m.h * x * D
            + 0.5 * m.eta1 * D * D
            + m.eta2 * D ** 3 / 3.0
            + m.p * x * D * D / (2.0 * EPS0)
            + m.q * x * D ** 3 / (3.0 * EPS0))


def stress_of(m: FreeEnergyModel, x: float, D: float) -> float:
    """Mechanical stress X = dA/dx, in Pa."""
    return (m.c * x + m.h * D + m.p * D * D / (2.0 * EPS0)
            + m.q * D ** 3 / (3.0 * EPS0))


def efield_of(m: FreeEnergyModel, x: float, D: float) -> float:
    """Electric field E = dA/dD, in V/m."""
    return (m.h * x + m.eta1 * D + m.eta2 * D * D
            + m.p * x * D / EPS0 + m.q * x * D * D / EPS0)


def extract_eta2(m: FreeEnergyModel, x: float) -> float:
    """Second-order inverse susceptibility at strain x.

    Computed as (1/2) d2E/dD2 at (x, D=0) by finite differences; equals the
    model's eta2 coefficient at x = 0 and has slope q/eps0 in x.
    """
    return 0.5 * fd_partial(lambda xx, dd: efield_of(m, xx, dd), (x, 0.0), (0, 2))


def _relative(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


@dataclass(frozen=True)
class RelationReport:
    """Residuals of the three Maxwell relations plus the factor-2 identity.

    Residuals are relative (|lhs - rhs| / max magnitude, 0 for 0 = 0).
    ``fd_step_used`` records the step scale of the high-order differences
    that dominate the residuals; first-order passes use the smaller
    eps_machine^(1/3) scale (see FD_STEP_SCALES).
    """

    order1_residual: float
    order2_residual: float
    order3_residual: float
    factor2_residual: float
    fd_step_used: float
    tol: float
    order1_passed: bool
    order2_passed: bool
    order3_passed: bool
    factor2_passed: bool

    @property
    def all_passed(self) -> bool:
        return (self.order1_passed and self.order2_passed
                and self.order3_passed and self.factor2_passed)

    def to_dict(self) -> dict:
        return {
            "order1_residual": self.order1_residual,
            "order2_residual": self.order2_residual,
            "order3_residual": self.order3_residual,
            "factor2_residual": self.factor2_residual,
            "fd_step_used": self.fd_step_used,
            "tol": self.tol,
            "order1_passed": self.order1_passed,
            "order2_passed": self.order2_passed,
            "order3_passed": self.order3_passed,
            "factor2_passed": self.factor2_passed,
            "all_passed": self.all_passed,
        }


def _report(resids: tuple[float, float, float, float], tol: float) -> RelationReport:
    r1, r2, r3, rf = resids
    return RelationReport(
        order1_residual=r1, order2_residual=r2, order3_residual=r3,
        factor2_residual=rf, fd_step_used=FD_STEP_SCALES[3], tol=tol,
        order1_passed=r1 < tol, order2_passed=r2 < tol,
        order3_passed=r3 < tol, factor2_passed=rf < tol)


def verify_relations_pair(stress_fn, efield_fn, tol: float = 1e-6,
                          eta2_fn=None) -> RelationReport:
    """Check the relation ladder between arbitrary stress/field callables.

    Both callables take (x, D).  When they are the two first derivatives of
    one potential, every residual is at the finite-difference rounding floor;
    mismatched callables (not derivable from a single potential) show up as
    residuals of order the coefficient disagreement.  ``eta2_fn`` overrides
    the strain-resolved eta2 used by the factor-2 route; by default it is
    recovered from ``efield_fn`` by differentiation.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    origin = (0.0, 0.0)
    lhs1 = fd_partial(stress_fn, origin, (0, 1))
    rhs1 = fd_partial(efield_fn, origin, (1, 0))
    lhs2 = fd_partial(stress_fn, origin, (0, 2))
    rhs2 = fd_partial(efield_fn, origin, (1, 1))
    lhs3 = fd_partial(stress_fn, origin, (0, 3))
    rhs3 = fd_partial(efield_fn, origin, (1, 2))
    if eta2_fn is None:
        def eta2_fn(x):
            return 0.5 * fd_partial(efield_fn, (x, 0.0), (0, 2))
    rhs_f2 = 2.0 * _diff(eta2_fn, 0.0, 1, scale=FD_STEP_LARGE)
    return _report((_relative(lhs1, rhs1), _relative(lhs2, rhs2),
                    _relative(lhs3, rhs3), _relative(lhs3, rhs_f2)), tol)


def verify_relations(m: FreeEnergyModel, tol: float = 1e-6) -> RelationReport:
    """Certify the Maxwell-relation ladder for one scalar model.

    All four residuals vanish up to finite-difference rounding for any model,
    because stress_of and efield_of are derivatives of the same polynomial;
    the checker earns its keep by failing on constitutive data that does not
    come from a single potential (see verify_relations_pair).
    """
    return verify_relations_pair(
        lambda x, D: stress_of(m, x, D),
        lambda x, D: efield_of(m, x, D),
        tol=tol,
        eta2_fn=lambda x: extract_eta2(m, x))


# --------------------------------------------------------------------------
# Two-component mode: D is a 2-vector, exercising index symmetry
# --------------------------------------------------------------------------

def _sym2(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def _sym3(a: np.ndarray) -> np.ndarray:
    import numpy as np
    out = np.zeros_like(a)
    for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        out += np.transpose(a, perm)
    return out / 6.0


@dataclass(frozen=True)
class VectorFreeEnergyModel:
    """Two-component analogue of FreeEnergyModel: scalar strain, D in R^2.

    Coefficient arrays are symmetrized on construction (eta1 and p over their
    two indices, eta2 and q over all three), because only the symmetric part
    survives contraction with D tensor powers in the potential; the
    Kleinman-style symmetry eta2[m, k, l] == eta2[m, l, k] therefore holds by
    construction rather than by assertion.
    """

    c: float
    h: np.ndarray        # (2,)
    eta1: np.ndarray     # (2, 2) symmetric
    eta2: np.ndarray     # (2, 2, 2) fully symmetric
    p: np.ndarray        # (2, 2) symmetric
    q: np.ndarray        # (2, 2, 2) fully symmetric

    def __post_init__(self):
        import numpy as np
        h = np.asarray(self.h, dtype=float).reshape(2)
        e1 = _sym2(np.asarray(self.eta1, dtype=float).reshape(2, 2))
        e2 = _sym3(np.asarray(self.eta2, dtype=float).reshape(2, 2, 2))
        p = _sym2(np.asarray(self.p, dtype=float).reshape(2, 2))
        q = _sym3(np.asarray(self.q, dtype=float).reshape(2, 2, 2))
        for name, arr in (("h", h), ("eta1", e1), ("eta2", e2), ("p", p), ("q", q)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"coefficient {name} must be finite")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "eta1", e1)
        object.__setattr__(self, "eta2", e2)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)


def eval_free_energy_vector(m: VectorFreeEnergyModel, x: float,
                            D: np.ndarray) -> float:
    import numpy as np
    D = np.asarray(D, dtype=float).reshape(2)
    return float(
        0.5 * m.c * x * x
        + x * (m.h @ D)
        + 0.5 * D @ m.eta1 @ D
        + np.einsum("ijk,i,j,k", m.eta2, D, D, D) / 3.0
        + x * (D @ m.p @ D) / (2.0 * EPS0)
        + x * np.einsum("ijk,i,j,k", m.q, D, D, D) / (3.0 * EPS0))


def stress_of_vector(m: VectorFreeEnergyModel, x: float, D: np.ndarray) -> float:
    import numpy as np
    D = np.asarray(D, dtype=float).reshape(2)
    return float(
        m.c * x + m.h @ D + (D @ m.p @ D) / (2.0 * EPS0)
        + np.einsum("ijk,i,j,k", m.q, D, D, D) / (3.0 * EPS0))


def efield_of_vector(m: VectorFreeEnergyModel, x: float,
                     D: np.ndarray) -> np.ndarray:
    import numpy as np
    D = np.asarray(D, dtype=float).reshape(2)
    return (m.h * x + m.eta1 @ D + np.einsum("mjk,j,k->m", m.eta2, D, D)
            + x * (m.p @ D) / EPS0
            + x * np.einsum("mjk,j,k->m", m.q, D, D) / EPS0)


def _diff_along(f, D0: np.ndarray, axes: tuple[int, ...],
                nested: bool = False) -> float:
    """Nested directional differences of f(D) along D-component axes.

    Repeated axes collapse into one higher-order stencil so that, e.g.,
    (0, 0, 1) costs a second-order pass along axis 0 and a first-order pass
    along axis 1.  The small first-derivative step applies only to a single
    un-nested pass, mirroring the scalar policy.
    """
    if not axes:
        return f(D0)
    axis = axes[0]
    order = 1
    while order < len(axes) and axes[order] == axis:
        order += 1
    rest = axes[order:]

    def along(val: float) -> float:
        D = D0.copy()
        D[axis] = val
        return _diff_along(f, D, rest, nested=True) if rest else f(D)

    scale = None if (order == 1 and not nested and not rest) else FD_STEP_LARGE
    return _diff(along, float(D0[axis]), order, scale=scale)


def verify_relations_vector(m: VectorFreeEnergyModel,
                            tol: float = 1e-6) -> RelationReport:
    """Componentwise relation ladder for the two-component model.

    Residuals are the worst over all index combinations; the factor-2 route
    uses eta2[m, k, l](x) = (1/2) d2 E_m / dD_k dD_l at D = 0.
    """
    import numpy as np
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    zero = np.zeros(2)

    def stress_x(x, D):
        return stress_of_vector(m, x, D)

    def efield_comp(mm):
        return lambda x, D: float(efield_of_vector(m, x, D)[mm])

    r1 = r2 = r3 = rf = 0.0
    for k in range(2):
        lhs = _diff_along(lambda D: stress_x(0.0, D), zero, (k,))
        rhs = _diff(lambda x: efield_comp(k)(x, zero), 0.0, 1, scale=FD_STEP_LARGE)
        r1 = max(r1, _relative(lhs, rhs))
    for k, l in combinations_with_replacement(range(2), 2):
        lhs = _diff_along(lambda D: stress_x(0.0, D), zero, (k, l), nested=True)
        rhs = _diff(lambda x: _diff_along(lambda D: efield_comp(l)(x, D), zero,
                                          (k,), nested=True),
                    0.0, 1, scale=FD_STEP_LARGE)
        r2 = max(r2, _relative(lhs, rhs))
    for k, l, mm in combinations_with_replacement(range(2), 3):
        lhs = _diff_along(lambda D: stress_x(0.0, D), zero, (k, l, mm), nested=True)
        rhs = _diff(lambda x: _diff_along(lambda D: efield_comp(mm)(x, D), zero,
                                          (k, l), nested=True),
                    0.0, 1, scale=FD_STEP_LARGE)
        r3 = max(r3, _relative(lhs, rhs))

        def eta2_comp(x, k=k, l=l, mm=mm):
            return 0.5 * _diff_along(lambda D: efield_comp(mm)(x, D), zero,
                                     (k, l), nested=True)

        rhs_f2 = 2.0 * _diff(eta2_comp, 0.0, 1, scale=FD_STEP_LARGE)
        rf = max(rf, _relative(lhs, rhs_f2))
    return _report((r1, r2, r3, rf), tol)
