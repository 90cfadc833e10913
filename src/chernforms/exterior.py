"""Differential forms on a single coordinate chart.

A form value is a finite sum ``sum_I f_I dx_I`` over strictly increasing
1-based multi-indices I, with coefficients that are plain complex numbers or
:class:`~chernforms.jets.Jet` instances. Fields are lazy: a ``FormField``
wraps an evaluator from chart points to form values, and the exterior
derivative differentiates the jet coefficients (consuming one derivative
order).

A ``ChartPoint`` is one point (coords of shape (m,)) or a row of k nodes
(coords (k, m)). At a row every coefficient may carry a leading node axis
(see :mod:`chernforms.jets`): a form value then holds the k form values of
its nodes under one key set, and a domain predicate returns a boolean mask.
A row gives, node by node, the bits of single points; a key that only some
nodes have is an exact zero at the others.

A form value may also carry ``fiber_dim`` odd generators e_1..e_d of an
exterior algebra Lambda(V), labelled ``chart_dim + 1 .. chart_dim + d``
after the chart differentials. The index I u S then stores (f dx_I) e_S,
forms first, and ``wedge`` on such indices is the product of the
supercommutative algebra Omega(chart) (x) Lambda(V): moving e_S past a
form of degree k gives the Koszul sign (-1)^{|S| k}. The exterior
derivative acts on the chart labels only.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from numbers import Number
from typing import Callable

import numpy as np

from .jets import Jet, coeff_mul, jet_constant, jet_coordinates, jet_value, smooth_step

__all__ = [
    "ChartPoint",
    "FormValue",
    "FormField",
    "OutsideDomainError",
    "epsilon_sign",
    "merge_multiindex",
    "wedge",
    "exterior_derivative",
    "curvature_entry",
    "smooth_cutoff",
    "partition_pair",
    "degree_involution",
]


class OutsideDomainError(ValueError):
    """Raised when a field is evaluated at a point outside its domain."""


class ChartPoint:
    """A point of an m-dimensional coordinate chart (real coordinates).

    Coords of shape (k, m) make a row of k nodes, evaluated in one field
    call (see the module docstring).
    """

    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = np.atleast_1d(np.asarray(coords, dtype=float))
        if self.coords.ndim > 2:
            raise ValueError(
                "chart point coordinates must be a flat sequence or a (nodes, m) row; "
                f"got shape {self.coords.shape}"
            )

    @property
    def dim(self) -> int:
        return self.coords.shape[-1]

    def __getitem__(self, i: int) -> float:
        return float(self.coords[i])

    def __repr__(self):
        return f"ChartPoint({self.coords.tolist()!r})"


def as_point(p) -> ChartPoint:
    return p if isinstance(p, ChartPoint) else ChartPoint(p)


def _check_index(index: tuple[int, ...], chart_dim: int) -> None:
    last = 0
    for i in index:
        if not (isinstance(i, (int, np.integer)) and last < i <= chart_dim):
            raise ValueError(
                f"multi-index {index!r} is not strictly increasing in 1..{chart_dim}"
            )
        last = i


def epsilon_sign(left: tuple[int, ...], right: tuple[int, ...]) -> int:
    """Sign of merging dx_left wedge dx_right into sorted order; 0 on overlap."""
    if set(left) & set(right):
        return 0
    inversions = 0
    for a in left:
        for b in right:
            if a > b:
                inversions += 1
    return -1 if inversions & 1 else 1


def merge_multiindex(left, right):
    """Merged sorted multi-index and the Koszul sign, or (0, None) on overlap."""
    sign = epsilon_sign(left, right)
    if sign == 0:
        return 0, None
    return sign, tuple(sorted(left + right))


class FormValue:
    """A differential form at a point or row: mapping multi-index -> coefficient.

    ``fiber_dim`` counts the Lambda(V) generators the indices may use (see
    the module docstring); it is 0 for a plain chart form.
    """

    __slots__ = ("chart_dim", "fiber_dim", "terms")

    def __init__(self, chart_dim: int, terms=None, validate: bool = True, fiber_dim: int = 0):
        self.chart_dim = int(chart_dim)
        self.fiber_dim = fiber_dim
        self.terms = dict(terms) if terms else {}
        if validate:
            if not (isinstance(fiber_dim, (int, np.integer)) and fiber_dim >= 0):
                raise ValueError(f"fiber generator count {fiber_dim!r} is not a count")
            for index in self.terms:
                _check_index(index, self.chart_dim + fiber_dim)

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(chart_dim: int, fiber_dim: int = 0) -> "FormValue":
        return FormValue(chart_dim, {}, fiber_dim=fiber_dim)

    @staticmethod
    def scalar(value, chart_dim: int, fiber_dim: int = 0) -> "FormValue":
        return FormValue(chart_dim, {(): value}, validate=False, fiber_dim=fiber_dim)

    # -- inspection ------------------------------------------------------

    def coefficient(self, index: tuple[int, ...]):
        """Coefficient of dx_index (Jet or complex); zero if absent."""
        return self.terms.get(tuple(index), 0.0)

    def value(self, index: tuple[int, ...]) -> complex:
        return jet_value(self.coefficient(index))

    def degrees(self) -> set[int]:
        return {len(i) for i in self.terms}

    def component(self, degree: int) -> "FormValue":
        return FormValue(
            self.chart_dim,
            {i: c for i, c in self.terms.items() if len(i) == degree},
            validate=False,
            fiber_dim=self.fiber_dim,
        )

    def max_abs(self) -> float:
        if not self.terms:
            return 0.0
        return max(abs(jet_value(c)) for c in self.terms.values())

    # -- algebra -----------------------------------------------------------

    def _binary(self, other, op, right_only):
        """Combine term by term; an index only ``other`` has gets right_only(coeff)."""
        if not isinstance(other, FormValue):
            return NotImplemented
        fiber_dim = _joint_fiber_dim(self, other)
        out = dict(self.terms)
        for index, coeff in other.terms.items():
            out[index] = op(out[index], coeff) if index in out else right_only(coeff)
        return FormValue(self.chart_dim, out, validate=False, fiber_dim=fiber_dim)

    def __add__(self, other):
        return self._binary(other, operator.add, lambda b: b)

    def __sub__(self, other):
        return self._binary(other, operator.sub, operator.neg)

    def __neg__(self):
        return self * (-1.0)

    def __mul__(self, scalar):
        if isinstance(scalar, (Number, Jet, np.ndarray)):
            return FormValue(
                self.chart_dim,
                {i: coeff_mul(c, scalar) for i, c in self.terms.items()},
                validate=False,
                fiber_dim=self.fiber_dim,
            )
        return NotImplemented

    __rmul__ = __mul__

    def prune(self, tol: float = 0.0) -> "FormValue":
        return FormValue(
            self.chart_dim,
            {i: c for i, c in self.terms.items() if abs(jet_value(c)) > tol},
            validate=False,
            fiber_dim=self.fiber_dim,
        )

    def __repr__(self):
        body = ", ".join(
            f"{i}: {jet_value(c):.6g}" for i, c in sorted(self.terms.items())
        )
        fiber = f", d={self.fiber_dim}" if self.fiber_dim else ""
        return f"FormValue(m={self.chart_dim}{fiber}, {{{body}}})"


def _joint_fiber_dim(a: FormValue, b: FormValue) -> int:
    """Generator count of a sum or product; a plain chart form fits any."""
    if a.chart_dim != b.chart_dim:
        raise ValueError("chart dimension mismatch")
    if a.fiber_dim == b.fiber_dim or not b.fiber_dim:
        return a.fiber_dim
    if not a.fiber_dim:
        return b.fiber_dim
    raise ValueError("fiber generator count mismatch")


def wedge(a: FormValue, b: FormValue) -> FormValue:
    """Exterior product of two form values on the same chart.

    On indices that use fiber generators this is the product of
    Omega(chart) (x) Lambda(V) (see the module docstring).
    """
    fiber_dim = _joint_fiber_dim(a, b)
    out: dict[tuple[int, ...], object] = {}
    for i_left, c_left in a.terms.items():
        for i_right, c_right in b.terms.items():
            sign, merged = merge_multiindex(i_left, i_right)
            if sign == 0:
                continue
            term = coeff_mul(c_left, c_right)
            if sign < 0:
                term = -term
            out[merged] = out[merged] + term if merged in out else term
    return FormValue(a.chart_dim, out, validate=False, fiber_dim=fiber_dim)


def degree_involution(a: FormValue) -> FormValue:
    """Multiply each homogeneous component by (-1)^degree."""
    return FormValue(
        a.chart_dim,
        {i: (c if len(i) % 2 == 0 else coeff_mul(-1.0, c)) for i, c in a.terms.items()},
        validate=False,
        fiber_dim=a.fiber_dim,
    )


@dataclass
class FormField:
    """A lazily evaluated form on a chart, with an optional domain predicate."""

    chart_dim: int
    evaluator: Callable[[ChartPoint], FormValue]
    domain: Callable[[ChartPoint], bool] | None = None
    name: str = field(default="", compare=False)

    def __call__(self, point) -> FormValue:
        p = as_point(point)
        if p.dim != self.chart_dim:
            raise ValueError(
                f"point has {p.dim} coordinates, field lives on a "
                f"{self.chart_dim}-chart"
            )
        if self.domain is not None:
            inside = self.domain(p)
            if not (inside is True or inside is np.True_ or np.all(inside)):
                where = p
                if p.coords.ndim > 1:
                    j = int(np.argmin(inside))
                    where = f"node {j} of a row, {ChartPoint(p.coords[j])!r}"
                raise OutsideDomainError(f"{self.name or 'field'} evaluated at {where}")
        return self.evaluator(p)


def differentiate_value(fv: FormValue) -> FormValue:
    """Exterior derivative of a form value (at a point or row) with Jet coefficients.

    Acts on the chart differentials only: d((f dx_I) e_S) = (df dx_I) e_S.
    """
    m = fv.chart_dim
    out: dict[tuple[int, ...], object] = {}
    for index, coeff in fv.terms.items():
        if not isinstance(coeff, Jet):
            raise TypeError(
                "exterior derivative needs Jet coefficients; got a plain number"
            )
        # Partials along the first axis; a row's node axis moves behind it.
        grad, hess = coeff.grad, coeff.hess
        if grad.ndim > 1:
            grad = grad.T
        if hess is not None and hess.ndim > 2:
            hess = hess.transpose(1, 0, 2)
        for k in range(1, m + 1):
            sign, merged = merge_multiindex((k,), index)
            if sign == 0:
                continue
            if hess is not None:
                part = Jet(grad[k - 1], hess[k - 1], None)
            else:
                part = jet_value(grad[k - 1])
            if sign < 0:
                part = -part
            out[merged] = out[merged] + part if merged in out else part
    return FormValue(m, out, validate=False, fiber_dim=fv.fiber_dim)


def curvature_entry(w, l: int, i: int) -> FormValue:
    """Entry [l][i] of F = dW + W ^ W for a square matrix W of 1-form values.

    The terms are summed in a fixed order: d W[l][i], then W[l][k] ^ W[k][i]
    for k ascending. F carries one jet order less than W.
    """
    f = differentiate_value(w[l][i])
    for k in range(len(w)):
        f = f + wedge(w[l][k], w[k][i])
    return f


def exterior_derivative(f: FormField) -> FormField:
    """d of a field. The result's coefficients have one fewer jet order."""
    return FormField(
        f.chart_dim,
        lambda p, _f=f: differentiate_value(_f(p)),
        domain=f.domain,
        name=f"d({f.name})" if f.name else "",
    )


def smooth_cutoff(
    chart_dim: int,
    r_inner: float,
    r_outer: float,
    dims: tuple[int, ...] | None = None,
) -> FormField:
    """A smooth [0,1] cutoff in the squared radius of selected coordinates.

    Returns the degree-0 field chi with chi = 1 where sum x_i^2 <= r_inner
    and chi = 0 where sum x_i^2 >= r_outer (both exactly, derivatives
    included). ``dims`` restricts the radius to a 1-based coordinate subset;
    the default uses all coordinates. At a row the smooth step masks off the
    nodes outside the band.
    """
    if not (0.0 <= r_inner < r_outer):
        raise ValueError("need 0 <= r_inner < r_outer")
    use = tuple(range(1, chart_dim + 1)) if dims is None else tuple(dims)
    if any(not 1 <= i <= chart_dim for i in use):
        raise ValueError(f"cutoff dims {use!r} are not all in 1..{chart_dim}")

    def evaluate(p: ChartPoint) -> FormValue:
        xs = jet_coordinates(p.coords, order=2)
        s = jet_constant(0.0, chart_dim, 2)
        for i in use:
            s = s + xs[i - 1] * xs[i - 1]
        u = (s - r_inner) * (1.0 / (r_outer - r_inner))
        chi = 1.0 - smooth_step(u)
        return FormValue(chart_dim, {(): chi}, validate=False)

    return FormField(chart_dim, evaluate, name="cutoff")


# Transition band of the partition pair in selector units: the first factor
# is exactly 0 at or below the low edge and exactly 1 at or above the high
# edge, so products against it can short-circuit outside the band.
PARTITION_BAND = (0.25, 0.75)


def partition_pair(selector: FormField) -> tuple[FormField, FormField]:
    """Two smooth weights from a scalar selector field, summing to one.

    The first weight vanishes identically where the selector is <= 1/4 and
    equals one where it is >= 3/4; the second is its exact complement.
    """
    lo, hi = PARTITION_BAND

    def phi1(p: ChartPoint) -> FormValue:
        s = selector(p).coefficient(())
        g = smooth_step((s - lo) * (1.0 / (hi - lo)))
        return FormValue(selector.chart_dim, {(): g}, validate=False)

    def phi2(p: ChartPoint) -> FormValue:
        s = selector(p).coefficient(())
        g = smooth_step((s - lo) * (1.0 / (hi - lo)))
        return FormValue(selector.chart_dim, {(): 1.0 - g}, validate=False)

    m = selector.chart_dim
    return (
        FormField(m, phi1, domain=selector.domain, name="phi1"),
        FormField(m, phi2, domain=selector.domain, name="phi2"),
    )
