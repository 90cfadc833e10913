"""Complex-structure property suites, each at 50+ random sample points.

Six suites: the graded Leibniz rule, d composed with itself, the relative
differential squared, the Leibniz rule of the partition product, the
partition-independence witness, and the intertwining of the cutoff
representative with the differentials.
"""

from __future__ import annotations

import numpy as np

from chernforms.exterior import (
    ChartPoint,
    FormField,
    FormValue,
    differentiate_value,
    exterior_derivative,
    partition_pair,
    smooth_cutoff,
    wedge,
)
from chernforms.jets import jet_coordinates
from chernforms.relative import RelativeCochain, d_rel, p_chi, product_phi
from helpers import poly_form_field, rand_points

LEIBNIZ_TOL = 1e-10
DD_TOL = 1e-9
DREL_TOL = 1e-9
PRODUCT_TOL = 1e-8
N_POINTS = 50

RNG = np.random.default_rng(101)
M = 3


def _real_selector(shift: float = 0.5) -> FormField:
    """A real scalar field wandering through the partition band."""
    w = RNG.normal(0, 0.15, M)
    q = RNG.normal(0, 0.1, M)

    def evaluate(p: ChartPoint) -> FormValue:
        jets = jet_coordinates(p.coords, order=2)
        acc = None
        for i in range(M):
            term = jets[i] * w[i] + jets[i] * jets[i] * q[i]
            acc = term if acc is None else acc + term
        return FormValue(M, {(): acc + shift})

    return FormField(M, evaluate)


def _homogeneous_cochain(degree: int, closed: bool) -> RelativeCochain:
    beta = poly_form_field(RNG, M, degree - 1)
    alpha = exterior_derivative(beta) if closed else poly_form_field(RNG, M, degree)
    return RelativeCochain(alpha, beta)


def test_graded_leibniz_suite():
    for _ in range(N_POINTS):
        ka = int(RNG.integers(0, 3))
        kb = int(RNG.integers(0, 3))
        a = poly_form_field(RNG, M, ka)
        b = poly_form_field(RNG, M, kb)
        (p,) = rand_points(RNG, M, 1)
        av, bv = a(p), b(p)
        lhs = differentiate_value(wedge(av, bv))
        rhs = wedge(differentiate_value(av), bv) + wedge(av, differentiate_value(bv)) * (
            (-1.0) ** ka
        )
        assert (lhs - rhs).max_abs() < LEIBNIZ_TOL


def test_dd_suite():
    for _ in range(N_POINTS):
        k = int(RNG.integers(0, 3))
        f = poly_form_field(RNG, M, k)
        (p,) = rand_points(RNG, M, 1)
        assert exterior_derivative(exterior_derivative(f))(p).max_abs() < DD_TOL


def test_d_rel_squared_suite():
    for _ in range(N_POINTS // 5):
        c = _homogeneous_cochain(int(RNG.integers(1, 3)), closed=False)
        dd = d_rel(d_rel(c))
        for p in rand_points(RNG, M, 5):
            assert dd.alpha(p).max_abs() < DREL_TOL
            assert dd.beta(p).max_abs() < DREL_TOL


def test_product_leibniz_suite():
    """d_rel(a ◊ b) = d_rel(a) ◊ b + (-1)^{deg a} a ◊ d_rel(b)."""
    count = 0
    while count < N_POINTS:
        k1 = int(RNG.integers(1, 3))
        k2 = int(RNG.integers(1, 3))
        c1 = _homogeneous_cochain(k1, closed=bool(RNG.integers(2)))
        c2 = _homogeneous_cochain(k2, closed=bool(RNG.integers(2)))
        phis = partition_pair(_real_selector())
        lhs = d_rel(product_phi(c1, c2, phis))
        ra = product_phi(d_rel(c1), c2, phis)
        rb = product_phi(c1, d_rel(c2), phis)
        sign = (-1.0) ** k1
        for p in rand_points(RNG, M, 5):
            la, lb = lhs.alpha(p), lhs.beta(p)
            wa = ra.alpha(p) + rb.alpha(p) * sign
            wb = ra.beta(p) + rb.beta(p) * sign
            assert (la - wa).max_abs() < PRODUCT_TOL
            assert (lb - wb).max_abs() < PRODUCT_TOL
            count += 1


def test_partition_independence_suite():
    """Changing the partition shifts the product by an explicit exact term."""
    count = 0
    while count < N_POINTS:
        k1 = int(RNG.integers(1, 3))
        k2 = int(RNG.integers(1, 3))
        c1 = _homogeneous_cochain(k1, closed=True)
        c2 = _homogeneous_cochain(k2, closed=True)
        phis = partition_pair(_real_selector())
        phis_alt = partition_pair(_real_selector(shift=0.45))
        prod = product_phi(c1, c2, phis)
        prod_alt = product_phi(c1, c2, phis_alt)

        sign = (-1.0) ** k1

        def primitive(p: ChartPoint) -> FormValue:
            dphi = phis[0](p).coefficient(()) - phis_alt[0](p).coefficient(())
            return wedge(c1.beta(p), c2.beta(p)) * (dphi * sign)

        witness = d_rel(
            RelativeCochain(
                FormField(M, lambda p: FormValue.zero(M)),
                FormField(M, primitive),
            )
        )
        for p in rand_points(RNG, M, 5):
            assert (prod.alpha(p) - prod_alt.alpha(p)).max_abs() < 1e-12
            delta = prod.beta(p) - prod_alt.beta(p)
            assert (delta - witness.beta(p)).max_abs() < PRODUCT_TOL
            count += 1


def test_p_chi_intertwines_suite():
    chi = smooth_cutoff(M, 0.25, 2.25)
    count = 0
    while count < N_POINTS:
        c = _homogeneous_cochain(int(RNG.integers(1, 3)), closed=False)
        lhs = p_chi(d_rel(c), chi)
        rhs = exterior_derivative(p_chi(c, chi))
        for p in rand_points(RNG, M, 5):
            assert (lhs(p) - rhs(p)).max_abs() < PRODUCT_TOL
            count += 1
