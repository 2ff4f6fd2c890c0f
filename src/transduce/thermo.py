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
Richardson refinement, by one ladder that walks the index combinations of an
n-component D: the scalar model is its one-component case.  Within the degree
caps (quadratic in x, cubic in D) truncation vanishes identically, so step
sizes are chosen purely against rounding, by one rule: the step is large
(0.25 times the coordinate scale), which keeps the differenced signal far
above the cancellation floor, except for an un-nested first D-derivative,
which uses eps_machine^(1/3) so that the 1/eps0-scaled quadratic and cubic
terms cannot pollute an O(1) linear coefficient (the piezoelectric term in
dX/dD).  A residual that is NaN (a difference that overflowed) fails.

Every function reads its strain, displacement and tolerance arguments with
``errors._reals``, a two-component D and fd_partial's point to a length of
two (``point must hold 2 values, got 1``), so a numpy scalar gives the plain
float a float gives, and each value of a callable it differentiates with
``errors._real``: one that is no real number (a str, None, an array, a
complex) is a ValueError naming the callable and the point.  fd_partial's
``orders`` is read as a pair by the sequence rule, ``errors._sequence``, and
each order by ``errors._integer``; every level of a free-energy coefficient's
nesting is read by the same rule.  So a set or a dict, which has no order,
is refused (``orders must be a sequence of numbers, got {0, 1}``) instead of
being read in hash or key order.
"""

from __future__ import annotations

import math
import sys
from itertools import combinations_with_replacement, permutations, product

from ._record import Record
from .errors import _POSITIVE, _integer, _real, _real_in, _reals, _sequence
from .units import EPS0

_EPS_MACHINE = sys.float_info.epsilon

# The one step rule.  The large scale is the default: within the degree caps
# the stencils are exact for polynomials, so bigger steps only reduce rounding
# noise.  The one exception is an un-nested first D-derivative, where a small
# O(1) target (the piezoelectric coefficient) must be separated from
# 1/eps0-scaled quadratic and cubic terms; there a small step shrinks the
# contamination faster than the signal.  Nested passes never face that case
# (differentiating in x first removes every term without the 1/eps0 scale),
# and a small inner step would poison the outer stencil with amplified noise.
FD_STEP_LARGE = 0.25
FD_STEP_SMALL = _EPS_MACHINE ** (1.0 / 3.0)

MAX_ORDER_X = 1
MAX_ORDER_D = 3


def _diff(f, at: float, order: int, scale: float) -> float:
    """Central difference of ``order`` with one Richardson level at ``at``."""
    h = scale * max(1.0, abs(at))

    def base(hh: float) -> float:
        if order == 1:
            return (f(at + hh) - f(at - hh)) / (2.0 * hh)
        if order == 2:
            return (f(at + hh) - 2.0 * f(at) + f(at - hh)) / (hh * hh)
        return (f(at + 2.0 * hh) - 2.0 * f(at + hh)
                + 2.0 * f(at - hh) - f(at - 2.0 * hh)) / (2.0 * hh ** 3)

    return (4.0 * base(h) - base(2.0 * h)) / 3.0


def _value(f, point: list[float], name: str) -> float:
    """``f(*point)`` read by ``errors._real``: a ValueError names the callable
    ``name`` and the point if it returned no real number."""
    value = f(*point)
    if type(value) is float:
        return value
    if (real := _real(value)) is None:
        raise ValueError(f"{name} must return a real number, got {value!r} "
                         f"at point {tuple(point)}")
    return real


def _partial(f, point: list[float], axes: tuple[int, ...],
             nested: bool = False, name: str = "f") -> float:
    """Nested central differences of f(*point) along the sorted ``axes``.

    ``point`` is [x, D_1, ..., D_n]: axis 0 is the strain, axis k > 0 the
    D-component k.  Each pass moves its coordinate in place and restores it.
    A run of repeated axes is one higher-order stencil, so (1, 1, 2) costs a
    second-order pass along D_1 around a first-order pass along D_2.  Only an
    un-nested first-order D pass takes the small step.  Each value of ``f``
    is read by ``_value``, which names ``f`` as ``name``.
    """
    if not axes:
        return _value(f, point, name)
    axis = axes[0]
    order = axes.count(axis)
    rest = axes[order:]
    at = point[axis]

    def along(val: float) -> float:
        point[axis] = val
        return _partial(f, point, rest, True, name) if rest else _value(f, point, name)

    small = axis > 0 and order == 1 and not (nested or rest)
    d = _diff(along, at, order, FD_STEP_SMALL if small else FD_STEP_LARGE)
    point[axis] = at
    return d


def fd_partial(f, point: tuple[float, float], orders: tuple[int, int]) -> float:
    """Mixed partial d^(nx+nd) f / dx^nx dD^nd of a scalar field f(x, D).

    ``orders`` = (nx, nd), a sequence of two ints, with nx <= 1 and nd <= 3,
    the degrees present in the free-energy models here.  Within those caps
    the estimate is exact for polynomials up to rounding, independent of the
    step size.
    """
    ox, od = _sequence(orders, "orders", (2,))     # each read by _integer below
    if (nx := _integer(ox)) is None or not 0 <= nx <= MAX_ORDER_X:
        raise ValueError(f"x-derivative order must be 0..{MAX_ORDER_X}, got {ox}")
    if (nd := _integer(od)) is None or not 0 <= nd <= MAX_ORDER_D:
        raise ValueError(f"D-derivative order must be 0..{MAX_ORDER_D}, got {od}")
    return _partial(f, list(_reals(point, "point", (2,))), (0,) * nx + (1,) * nd)


def _flat(value, depth: int, name: str) -> list:
    """The items of ``value`` nested at most ``depth`` deep, in row-major
    order, each level read in order by the sequence rule under ``name``; a
    number is one item, as is anything at depth 0."""
    return ([value] if depth == 0 or _real(value) is not None
            else [v for item in _sequence(value, name, (None,))
                  for v in _flat(item, depth - 1, name)])


def _symmetrized(flat: list[float], rank: int) -> list[float]:
    """The row-major 2**rank table ``flat`` averaged over every permutation of
    its indices, as numpy sums ``np.transpose(a, perm)`` into zeros in
    ``itertools.permutations`` order and divides by rank!: that transpose
    holds at ``idx`` the entry whose index j has j[perm[n]] = idx[n]."""
    out = [0.0] * len(flat)
    for perm in permutations(range(rank)):
        for i, idx in enumerate(product((0, 1), repeat=rank)):
            out[i] += flat[sum(idx[perm.index(k)] << (rank - 1 - k) for k in range(rank))]
    return [v / math.factorial(rank) for v in out]


def _nested(flat: list[float]):
    """The row-major 2**rank table ``flat`` as nested pairs; rank 0 is a float."""
    half = len(flat) // 2
    return (_nested(flat[:half]), _nested(flat[half:])) if half else flat[0]


def _coefficients(values, ranks) -> dict:
    """c, h, eta1, eta2, p and q of a model, from ``values`` of ``ranks``.

    Each is given as any nesting of its 2**rank numbers, every level a
    sequence (a set or a dict, with no order, is none), read in row-major
    order, and stored as nested float pairs (a float at rank 0), averaged
    over its index permutations from rank 2 on.
    """
    out = {}
    for name, value, rank in zip(FreeEnergyModel._fields, values, ranks):
        try:
            flat = _reals(_flat(value, rank, name), name, (2 ** rank,))
        except ValueError:
            flat = (math.nan,)          # named below
        else:
            flat = _symmetrized(flat, rank) if rank > 1 else flat
        if not all(map(math.isfinite, flat)):
            what = f"{2 ** rank} finite numbers" if rank else "a finite number"
            raise ValueError(f"coefficient {name} must be {what}, got {value!r}")
        out[name] = _nested(flat)
    return out


class FreeEnergyModel(Record):
    """Scalar constitutive model; see the module docstring for the polynomial.

    Units: c in Pa, h in V/m per unit strain-displacement, eta1 and eta2 the
    inverse-susceptibility coefficients, p dimensionless, q in m^2/C.
    A(0, 0) = 0 by construction and the model is smooth everywhere.
    """

    def __init__(self, c: float = 0.0, h: float = 0.0, eta1: float = 0.0,
                 eta2: float = 0.0, p: float = 0.0, q: float = 0.0):
        self.__dict__.update(_coefficients((c, h, eta1, eta2, p, q), (0,) * 6))


def eval_free_energy(m: FreeEnergyModel, x: float, D: float) -> float:
    """The free-energy density A(x, D) in J/m^3."""
    x, D = _reals(x, "x"), _reals(D, "D")
    return (0.5 * m.c * x * x
            + m.h * x * D
            + 0.5 * m.eta1 * D * D
            + m.eta2 * D ** 3 / 3.0
            + m.p * x * D * D / (2.0 * EPS0)
            + m.q * x * D ** 3 / (3.0 * EPS0))


def stress_of(m: FreeEnergyModel, x: float, D: float) -> float:
    """Mechanical stress X = dA/dx, in Pa."""
    x, D = _reals(x, "x"), _reals(D, "D")
    return (m.c * x + m.h * D + m.p * D * D / (2.0 * EPS0)
            + m.q * D ** 3 / (3.0 * EPS0))


def efield_of(m: FreeEnergyModel, x: float, D: float) -> float:
    """Electric field E = dA/dD, in V/m."""
    x, D = _reals(x, "x"), _reals(D, "D")
    return (m.h * x + m.eta1 * D + m.eta2 * D * D
            + m.p * x * D / EPS0 + m.q * x * D * D / EPS0)


def extract_eta2(m: FreeEnergyModel, x: float) -> float:
    """Second-order inverse susceptibility at strain x.

    Computed as (1/2) d2E/dD2 at (x, D=0) by finite differences; equals the
    model's eta2 coefficient at x = 0 and has slope q/eps0 in x.
    """
    return 0.5 * fd_partial(lambda xx, dd: efield_of(m, xx, dd), (x, 0.0), (0, 2))


_RUNGS = ("order1", "order2", "order3", "factor2")


def _relative(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


class RelationReport(Record):
    """Residuals of the three Maxwell relations plus the factor-2 identity.

    Residuals are relative (|lhs - rhs| / max magnitude, 0 for 0 = 0).  The
    report stores the four residuals and ``tol``, which must be positive and
    finite; each ``<rung>_passed`` is computed when it is read, as
    ``residual < tol``, so a NaN residual fails and a ``replace`` cannot
    leave a stale verdict or pass one by an infinite ``tol``.
    """

    def __init__(self, order1_residual: float, order2_residual: float,
                 order3_residual: float, factor2_residual: float, tol: float):
        t = _real_in(tol, "tol", _POSITIVE)        # an infinite tol passes anything
        self.__dict__.update(zip(self._fields, (
            order1_residual, order2_residual, order3_residual, factor2_residual, t)))

    order1_passed = property(lambda self: self.order1_residual < self.tol)
    order2_passed = property(lambda self: self.order2_residual < self.tol)
    order3_passed = property(lambda self: self.order3_residual < self.tol)
    factor2_passed = property(lambda self: self.factor2_residual < self.tol)

    @property
    def all_passed(self) -> bool:
        return (self.order1_passed and self.order2_passed
                and self.order3_passed and self.factor2_passed)

    def to_dict(self) -> dict:
        verdicts = {f"{rung}_passed": getattr(self, f"{rung}_passed") for rung in _RUNGS}
        return {**vars(self), **verdicts, "all_passed": self.all_passed}


def _nan_first(r: float) -> tuple[bool, float]:
    """Sort key under which max() is NaN if any residual is NaN."""
    return math.isnan(r), r


def _ladder(stress, efield, tol: float) -> RelationReport:
    """The relation ladder for an n-component D, worst residual per rung.

    ``stress(x, D_1, ..., D_n)`` is X and ``efield[m](x, D_1, ..., D_n)`` is
    E_m, with n = len(efield).  Order r compares d^r X / dD_k...dD_m with
    d/dx d^(r-1) E_m / dD_k... for every sorted index combination (k, ..., m);
    the factor-2 route differentiates eta2_mkl(x) = (1/2) d2 E_m / dD_k dD_l
    at D = 0 in x.
    """
    n = len(efield)
    origin = [0.0] * (n + 1)
    resids: tuple[list[float], ...] = ([], [], [], [])
    for order in (1, 2, 3):
        for axes in combinations_with_replacement(range(1, n + 1), order):
            inner, e_m = axes[:-1], efield[axes[-1] - 1]
            lhs = _partial(stress, origin, axes, name="stress_fn")
            rhs = _partial(e_m, origin, (0, *inner), name="efield_fn")
            resids[order - 1].append(_relative(lhs, rhs))
            if order == 3:
                rhs_f2 = 2.0 * _partial(
                    lambda *p: 0.5 * _partial(e_m, list(p), inner, True, "efield_fn"),
                    origin, (0,))
                resids[3].append(_relative(lhs, rhs_f2))
    return RelationReport(*(max(r, key=_nan_first) for r in resids), tol)


def verify_relations_pair(stress_fn, efield_fn, tol: float = 1e-6) -> RelationReport:
    """Check the relation ladder between arbitrary stress/field callables.

    Both callables take (x, D).  When they are the two first derivatives of
    one potential, every residual is at the finite-difference rounding floor;
    mismatched callables (not derivable from a single potential) show up as
    residuals of order the coefficient disagreement.  The strain-resolved
    eta2 of the factor-2 route is recovered from ``efield_fn``.
    """
    return _ladder(stress_fn, [efield_fn], tol)


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
        tol=tol)


# --------------------------------------------------------------------------
# Two-component mode: D is a 2-vector, exercising index symmetry
# --------------------------------------------------------------------------

def _contract(t, d: tuple[float, float]) -> float:
    """The nested table ``t`` contracted with the 2-vector ``d`` over every
    index: t[i] d_i, t[i][j] d_i d_j or t[i][j][k] d_i d_j d_k."""
    return _contract(t[0], d) * d[0] + _contract(t[1], d) * d[1] if type(t) is tuple else t


class VectorFreeEnergyModel(Record):
    """Two-component analogue of FreeEnergyModel: scalar strain, D in R^2.

    ``c`` is a float; ``h`` is a pair of floats, ``eta1`` and ``p`` 2x2 and
    ``eta2`` and ``q`` 2x2x2 tables of nested float pairs, indexed
    ``eta2[m][k][l]``.  Each is given as any nesting of its 2**rank numbers
    (a list, a numpy array, flat or not), read in row-major order.  The tables
    are symmetrized on construction (eta1 and p over their two indices, eta2
    and q over all three), because only the symmetric part survives
    contraction with D tensor powers in the potential; the Kleinman-style
    symmetry eta2[m][k][l] == eta2[m][l][k] therefore holds by construction
    rather than by assertion.
    """

    def __init__(self, c: float, h, eta1, eta2, p, q):
        self.__dict__.update(_coefficients((c, h, eta1, eta2, p, q), (0, 1, 2, 3, 2, 3)))


def eval_free_energy_vector(m: VectorFreeEnergyModel, x: float, D) -> float:
    x, d = _reals(x, "x"), _reals(D, "D", (2,))
    return (0.5 * m.c * x * x + x * _contract(m.h, d) + 0.5 * _contract(m.eta1, d)
            + _contract(m.eta2, d) / 3.0 + x * _contract(m.p, d) / (2.0 * EPS0)
            + x * _contract(m.q, d) / (3.0 * EPS0))


def stress_of_vector(m: VectorFreeEnergyModel, x: float, D) -> float:
    x, d = _reals(x, "x"), _reals(D, "D", (2,))
    return (m.c * x + _contract(m.h, d) + _contract(m.p, d) / (2.0 * EPS0)
            + _contract(m.q, d) / (3.0 * EPS0))


def efield_of_vector(m: VectorFreeEnergyModel, x: float, D) -> tuple[float, float]:
    x, d = _reals(x, "x"), _reals(D, "D", (2,))
    return tuple(m.h[k] * x + _contract(m.eta1[k], d) + _contract(m.eta2[k], d)
                 + x * _contract(m.p[k], d) / EPS0 + x * _contract(m.q[k], d) / EPS0
                 for k in (0, 1))


def verify_relations_vector(m: VectorFreeEnergyModel,
                            tol: float = 1e-6) -> RelationReport:
    """Componentwise relation ladder for the two-component model.

    Residuals are the worst over all index combinations; the factor-2 route
    uses eta2[m, k, l](x) = (1/2) d2 E_m / dD_k dD_l at D = 0.
    """
    return _ladder(lambda x, *D: stress_of_vector(m, x, D),
                   [lambda x, *D, k=k: efield_of_vector(m, x, D)[k]
                    for k in range(2)], tol)
