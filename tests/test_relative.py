"""Relative cochains: differential, cutoff representatives, integration."""

from __future__ import annotations

import numpy as np
import pytest

from chernforms.exterior import (
    ChartPoint,
    FormField,
    FormValue,
    OutsideDomainError,
    differentiate_value,
    exterior_derivative,
    smooth_cutoff,
    wedge,
)
from chernforms.jets import jet_coordinates
from chernforms.quillen import SuperConnectionData, ch_rel
from chernforms.relative import (
    RelativeCochain,
    d_rel,
    integrate_compact,
    integrate_fiber,
    p_chi,
)
from helpers import poly_form_field, rand_points

DREL_TOL = 1e-10
STOKES_TOL = 1e-7

RNG = np.random.default_rng(23)


def _poly_cochain(m: int, degree: int) -> RelativeCochain:
    alpha = poly_form_field(RNG, m, degree)
    beta = poly_form_field(RNG, m, degree - 1)
    return RelativeCochain(alpha, beta)


def test_d_rel_squares_to_zero():
    m = 3
    for _ in range(10):
        c = _poly_cochain(m, 2)
        dd = d_rel(d_rel(c))
        (p,) = rand_points(RNG, m, 1)
        assert dd.alpha(p).max_abs() < DREL_TOL
        assert dd.beta(p).max_abs() < DREL_TOL


def test_p_chi_commutes_with_differentials():
    m = 3
    chi = smooth_cutoff(m, 0.25, 2.25)
    for _ in range(10):
        c = _poly_cochain(m, 2)
        lhs = p_chi(d_rel(c), chi)
        rhs = exterior_derivative(p_chi(c, chi))
        for p in rand_points(RNG, m, 3):
            assert (lhs(p) - rhs(p)).max_abs() < 1e-9


def test_p_chi_is_alpha_inside_and_dchi_beta_in_band():
    m = 2
    chi = smooth_cutoff(m, 1.0, 4.0)
    c = _poly_cochain(m, 1)
    rep = p_chi(c, chi)
    p_in = ChartPoint([0.3, 0.4])
    assert (rep(p_in) - c.alpha(p_in)).max_abs() < 1e-14
    p_band = ChartPoint([1.1, 0.7])
    chi_jet = chi(p_band).coefficient(())
    dchi = FormValue(m, {(1,): chi_jet.grad[0], (2,): chi_jet.grad[1]})
    want = c.alpha(p_band) * chi_jet.value + wedge(dchi, c.beta(p_band))
    assert (rep(p_band) - want).max_abs() < 1e-12


def test_winding_morphism_cutoff_representative_display():
    """With a radial cutoff f(r^2) the plane representative is -2i f'(r^2) dx dy."""
    trivial = SuperConnectionData(None)
    from chernforms.scenarios import bott_morphism

    b = bott_morphism()
    chi = smooth_cutoff(2, 0.36, 4.41)
    rep = p_chi(ch_rel(b, trivial), chi)
    for _ in range(6):
        r = RNG.uniform(0.75, 1.9)
        phase = RNG.uniform(0, 2 * np.pi)
        p = ChartPoint([r * np.cos(phase), r * np.sin(phase)])
        chi_jet = chi(p).coefficient(())
        # radial chain rule: d chi/dx = f'(r^2) 2x
        fprime = chi_jet.grad[0] / (2.0 * p.coords[0])
        got = rep(p)
        assert abs(got.value((1, 2)) - (-2j) * fprime) < 1e-10
        assert got.component(0).max_abs() < 1e-12
        assert got.component(1).max_abs() < 1e-12


def test_product_with_unit_cochain():
    """Against (1, 0) with the first weight saturated, the product is the identity."""
    m = 3
    c1 = _poly_cochain(m, 2)
    unit = RelativeCochain(
        FormField(m, lambda p: FormValue.scalar(1.0, m)),
        FormField(m, lambda p: FormValue.zero(m)),
    )
    from chernforms.exterior import partition_pair
    from chernforms.jets import jet_constant

    saturated = FormField(m, lambda p: FormValue(m, {(): jet_constant(1.0, m)}))
    phis = partition_pair(saturated)
    from chernforms.relative import product_phi

    prod = product_phi(c1, unit, phis)
    for p in rand_points(RNG, m, 4):
        assert (prod.alpha(p) - c1.alpha(p)).max_abs() < 1e-13
        assert (prod.beta(p) - c1.beta(p)).max_abs() < 1e-13


def test_cutoff_representative_of_product():
    """Representing factors then wedging differs from representing the
    product by an explicit d-exact correction."""
    from chernforms.exterior import partition_pair
    from chernforms.jets import jet_coordinates as _jets
    from chernforms.relative import product_phi

    m = 3
    k1 = 2

    def closed_cochain(degree):
        beta = poly_form_field(RNG, m, degree - 1)
        return RelativeCochain(exterior_derivative(beta), beta)

    c1 = closed_cochain(k1)
    c2 = closed_cochain(1)
    chi1 = smooth_cutoff(m, 0.25, 2.25)
    chi2 = smooth_cutoff(m, 0.16, 1.96)
    chi12 = FormField(
        m, lambda p: FormValue(m, {(): chi1(p).coefficient(()) * chi2(p).coefficient(())})
    )

    def selector(p):
        jets = _jets(p.coords, order=2)
        return FormValue(m, {(): jets[0] * 0.2 + 0.5})

    phis = partition_pair(FormField(m, selector))
    prod = product_phi(c1, c2, phis)
    rep1 = p_chi(c1, chi1)
    rep2 = p_chi(c2, chi2)
    rep12 = p_chi(prod, chi12)

    sign = (-1.0) ** k1

    def correction(p: ChartPoint) -> FormValue:
        ch1 = chi1(p).coefficient(())
        ch2 = chi2(p).coefficient(())
        dch1 = differentiate_value(chi1(p))
        dch2 = differentiate_value(chi2(p))
        phi1 = phis[0](p).coefficient(())
        phi2 = phis[1](p).coefficient(())
        b1, b2 = c1.beta(p), c2.beta(p)
        w_a = wedge(dch2, wedge(b1, b2) * phi1) * (ch1 * -sign)
        w_b = wedge(dch1, wedge(b1, b2 * phi2)) * (ch2 * sign)
        return w_a + w_b

    for p in rand_points(RNG, m, 5):
        lhs = wedge(rep1(p), rep2(p)) - rep12(p)
        rhs = differentiate_value(correction(p))
        assert (lhs - rhs).max_abs() < 1e-9


def test_beta_raises_on_support():
    trivial = SuperConnectionData(None)
    from chernforms.scenarios import bott_morphism

    pair = ch_rel(bott_morphism(), trivial)
    with pytest.raises(OutsideDomainError):
        pair.beta(ChartPoint([0.0, 0.0]))


def test_integral_of_exact_compact_form_vanishes():
    """Stokes: the box integral of d(bump * omega) is zero."""
    m = 2
    chi = smooth_cutoff(m, 0.25, 1.0)

    def evaluate(p: ChartPoint) -> FormValue:
        jets = jet_coordinates(p.coords, order=2)
        bump = chi(p).coefficient(())
        return FormValue(m, {(1,): bump * jets[1] * jets[0], (2,): bump * (jets[0] * jets[0])})

    field = exterior_derivative(FormField(m, evaluate))
    total = integrate_compact(field, [(-1.2, 1.2), (-1.2, 1.2)], order=48)
    assert abs(total) < STOKES_TOL


def test_integrate_compact_constant():
    field = FormField(2, lambda p: FormValue(2, {(1, 2): 3.0}))
    total = integrate_compact(field, [(0.0, 1.0), (0.0, 2.0)], order=8)
    assert abs(total - 6.0) < 1e-12


def test_integrate_compact_orientation_flip():
    dx2_dx1 = wedge(FormValue(2, {(2,): 1.0}), FormValue(2, {(1,): 1.0}))
    field = FormField(2, lambda p: dx2_dx1)
    total = integrate_compact(field, [(0.0, 1.0), (0.0, 1.0)], order=8)
    assert abs(total + 1.0) < 1e-12


def test_integrate_fiber_gaussian_vs_compact():
    """int (1 + x^2) e^{-r^2} dx dy over the plane, both quadrature modes."""

    def evaluate(p: ChartPoint) -> FormValue:
        x, y = p.coords[..., 0], p.coords[..., 1]
        val = (1.0 + x * x) * np.exp(-(x * x + y * y))
        return FormValue(2, {(1, 2): val.astype(complex)})

    field = FormField(2, evaluate)
    want = 1.5 * np.pi
    gauss = integrate_fiber(field, (1, 2), mode="gaussian", order=24).coefficient(())
    comp = integrate_fiber(
        field, (1, 2), mode="compact", order=64, half_width=7.0
    ).coefficient(())
    assert abs(gauss - want) < 1e-10
    assert abs(comp - want) < 1e-8


def test_integrate_fiber_rejects_unusable_gaussian_order():
    """At order 400 the rescaled Gauss-Hermite weights are 0 or inf: fail before any node."""
    evaluated = []

    def evaluate(p: ChartPoint) -> FormValue:
        evaluated.append(p)
        return FormValue(2, {(1, 2): 1.0})

    with pytest.raises(ValueError, match="Gauss-Hermite order 400"):
        integrate_fiber(FormField(2, evaluate), (1, 2), mode="gaussian", order=400)
    assert not evaluated


@pytest.mark.parametrize("half_width", [0.0, -1.0, float("inf"), float("nan")])
def test_integrate_fiber_rejects_unusable_half_width(half_width):
    """A half-width of 0 used to return 0, and -1 the wrong sign for odd d: fail before any node."""
    evaluated = []

    def evaluate(p: ChartPoint) -> FormValue:
        evaluated.append(p)
        return FormValue(2, {(1, 2): 1.0})

    with pytest.raises(ValueError, match="half_width must be positive and finite"):
        integrate_fiber(FormField(2, evaluate), (1, 2), mode="compact", half_width=half_width)
    assert not evaluated


@pytest.mark.parametrize(
    "fiber, base", [((0, 2), [0.5]), ((1, 3), [0.5]), ((-1,), [0.5, 0.5])]
)
def test_integrate_fiber_rejects_dims_outside_the_chart(fiber, base):
    """Dim 0 used to write the fiber node into the last coordinate."""
    evaluated = []

    def evaluate(p: ChartPoint) -> FormValue:
        evaluated.append(p)
        return FormValue(2, {(1, 2): 1.0})

    with pytest.raises(ValueError, match="not all in 1..2"):
        integrate_fiber(FormField(2, evaluate), fiber, base_point=base, half_width=1.0)
    assert not evaluated


def test_integrate_fiber_keeps_base_part():
    """Fiberwise integration of a mixed form leaves a base form behind."""

    def evaluate(p: ChartPoint) -> FormValue:
        th, x, y = p.coords[..., 0], p.coords[..., 1], p.coords[..., 2]
        val = np.exp(-(x * x + y * y)) * np.cos(th)
        return FormValue(3, {(1, 2, 3): val.astype(complex)})

    field = FormField(3, evaluate)
    out = integrate_fiber(
        field, (2, 3), mode="gaussian", base_point=ChartPoint([0.5]), order=24
    )
    assert abs(out.value((1,)) - np.pi * np.cos(0.5)) < 1e-10


@pytest.mark.parametrize("mode", ["compact", "gaussian"])
def test_integrate_fiber_calls_the_field_once_per_grid_row(mode):
    """order^2 nodes in order calls of order nodes each: the nodes of a call
    share the base point and the first fiber coordinate, the grid row."""
    for order in (4, 8):
        rows = []

        def evaluate(p: ChartPoint) -> FormValue:
            rows.append(p.coords.copy())
            x, y = p.coords[..., 1], p.coords[..., 2]
            return FormValue(3, {(1, 2, 3): np.exp(-(x * x + y * y)).astype(complex)})

        options = {"half_width": 3.0} if mode == "compact" else {}
        integrate_fiber(
            FormField(3, evaluate), (2, 3), mode=mode, base_point=[0.7], order=order, **options
        )
        assert len(rows) == order
        for coords in rows:
            assert coords.shape == (order, 3)
            assert (coords[:, 0] == 0.7).all()
            assert (coords[:, 1] == coords[0, 1]).all()
        assert len({coords[0, 1] for coords in rows}) == order
