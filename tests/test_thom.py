"""Metric-bundle forms: Gaussian representatives, genus factors, spin lift."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from chernforms.clifford_berezin import (
    contraction,
    covariant_wedge,
    generator_form,
    pfaffian,
)
from chernforms.exterior import (
    ChartPoint,
    FormValue,
    curvature_entry,
    differentiate_value,
    smooth_cutoff,
    wedge,
)
from chernforms.jets import Jet, jet_coordinates, jet_value
from chernforms.quillen import ch_rel
from chernforms.relative import d_rel, integrate_compact, integrate_fiber, p_chi
from chernforms.scenarios import sphere_bundle, torus_bundle
from chernforms.thom import (
    EuclideanBundle,
    a_hat_genus,
    a_hat_inverse,
    beta_wedge,
    c_wedge,
    clifford_curvature,
    epsilon_d,
    eta_wedge,
    euler_form,
    f_t_element,
    lift_to_total,
    log_s_coefficients,
    spin_connection,
    spin_morphism,
    thom_c,
    thom_mq,
    thom_rel,
    _per_base_point,
    zero_section,
)
from helpers import assert_row_matches_points

CLOSED_TOL = 1e-8
EFT_TOL = 1e-9
GAMMA_TOL = 1e-7

RNG = np.random.default_rng(17)
LAM = 0.3


def _total_point(base_dim=2, rank=2, r_lo=0.4, r_hi=1.8) -> ChartPoint:
    base = RNG.uniform(-2.0, 2.0, base_dim)
    fiber = RNG.normal(0, 1, rank)
    fiber *= RNG.uniform(r_lo, r_hi) / np.linalg.norm(fiber)
    return ChartPoint([*base, *fiber])


def _lifted_connection(bundle: EuclideanBundle, p: ChartPoint) -> list[list[FormValue]]:
    """The base connection matrix at p's base point, on the total chart."""
    mb, d = bundle.base_dim, bundle.rank
    w = bundle.connection(ChartPoint(p.coords[:mb]))
    return [[lift_to_total(w[l][i], mb, d) for i in range(d)] for l in range(d)]


def rank4_bundle() -> EuclideanBundle:
    """Two independent rotation blocks over a 4-dim base."""

    def entries(p: ChartPoint):
        th = jet_coordinates(p.coords, order=2)
        return {
            (2, 1): FormValue(4, {(2,): th[0].cos() * LAM}),
            (4, 3): FormValue(4, {(4,): th[2].sin() * (-0.2)}),
        }

    return EuclideanBundle.from_lower_entries(4, 4, entries)


def curved_base_bundle() -> EuclideanBundle:
    """Rank 2 over a 4-dim base, with (d eta)^2 nonzero."""

    def entries(p: ChartPoint):
        th = jet_coordinates(p.coords, order=2)
        w = FormValue(4, {(2,): th[0].cos() * 0.4, (4,): th[2].sin() * 0.25})
        return {(2, 1): w}

    return EuclideanBundle.from_lower_entries(2, 4, entries)


def test_epsilon_d_values():
    assert abs(epsilon_d(2) + np.pi) < 1e-15
    assert abs(epsilon_d(4) - np.pi**2) < 1e-14
    assert abs(epsilon_d(6) + np.pi**3) < 1e-13


def test_gaussian_form_is_closed():
    for bundle, dim in ((torus_bundle(LAM), 4), (rank4_bundle(), 8)):
        field = c_wedge(bundle, 0.9, jet_order=1)
        for _ in range(4):
            p = ChartPoint(RNG.uniform(-1.2, 1.2, dim))
            assert differentiate_value(field(p)).max_abs() < CLOSED_TOL


def test_t_derivative_is_minus_d_eta():
    bundle = torus_bundle(LAM)
    h = 1e-4
    for t in (0.8, 1.5):
        p = _total_point()
        hi = c_wedge(bundle, t + h)(p)
        lo = c_wedge(bundle, t - h)(p)
        ddt = (hi - lo) * (1.0 / (2.0 * h))
        deta = differentiate_value(eta_wedge(bundle, t, jet_order=1)(p))
        assert (ddt + deta).max_abs() < 1e-6


def test_covariant_flatness_of_the_gaussian_generator():
    """(covariant d - 2t iota_x) annihilates the exponent element."""
    for bundle in (torus_bundle(LAM), rank4_bundle()):
        for t in (0.0, 0.7, 1.3):
            p = ChartPoint(RNG.uniform(-1.1, 1.1, bundle.total_dim))
            elem = f_t_element(bundle, p, t)
            w = _lifted_connection(bundle, p)
            xs = [
                jet_coordinates(p.coords, order=1)[bundle.base_dim + i]
                for i in range(bundle.rank)
            ]
            residual = covariant_wedge(elem, w) - contraction(elem, xs) * (2.0 * t)
            assert residual.max_abs() < EFT_TOL


def test_rank2_closed_form_displays():
    bundle = torus_bundle(LAM)
    for _ in range(6):
        p = _total_point()
        th1 = p.coords[0]
        x1, x2 = p.coords[2], p.coords[3]
        r2 = x1 * x1 + x2 * x2
        eta_c = LAM * np.cos(th1)
        d_eta = FormValue(4, {(1, 2): -LAM * np.sin(th1)})
        eta1 = FormValue(4, {(3,): 1.0, (2,): -x2 * eta_c})
        eta2 = FormValue(4, {(4,): 1.0, (2,): x1 * eta_c})
        cross = eta2 * x1 - eta1 * x2
        t = RNG.uniform(0.2, 1.8)
        decay = np.exp(-(t * t) * r2)
        c_disp = (d_eta * 0.5 - wedge(eta1, eta2) * (t * t)) * decay
        assert (c_wedge(bundle, t)(p) - c_disp).max_abs() < 1e-12
        eta_disp = cross * (t * decay)
        assert (eta_wedge(bundle, t)(p) - eta_disp).max_abs() < 1e-12
        beta_disp = cross * (0.5 / r2)
        assert (beta_wedge(bundle)(p) - beta_disp).max_abs() < 1e-12


@pytest.mark.parametrize(
    "form", [generator_form(2, 2, (1,)), FormValue(4, {(3,): 1.0})], ids=["generator", "4-chart"]
)
def test_lift_to_total_rejects_forms_off_the_base_chart(form):
    """e_1 used to come back as dx_3, and a 4-chart form as if it lived on the base."""
    with pytest.raises(ValueError, match="plain form on the 2-chart"):
        lift_to_total(form, 2, 2)


def test_eta_vanishes_at_t_zero():
    bundle = torus_bundle(LAM)
    assert eta_wedge(bundle, 0.0)(_total_point()).max_abs() == 0.0


def test_gaussian_representative_display():
    """Th_MQ = (1/2pi) e^{-r^2} (2 dx1 dx2 - d eta + d(r^2) eta)."""
    bundle = torus_bundle(LAM)
    field = thom_mq(bundle)
    for _ in range(5):
        p = _total_point()
        th1 = p.coords[0]
        x1, x2 = p.coords[2], p.coords[3]
        r2 = x1 * x1 + x2 * x2
        eta_c = FormValue(4, {(2,): LAM * np.cos(th1)})
        d_eta = FormValue(4, {(1, 2): -LAM * np.sin(th1)})
        dr2 = FormValue(4, {(3,): 2.0 * x1, (4,): 2.0 * x2})
        dx12 = FormValue(4, {(3, 4): 1.0})
        disp = (
            dx12 * 2.0 - d_eta + wedge(dr2, eta_c)
        ) * (np.exp(-r2) / (2.0 * np.pi))
        assert (field(p) - disp).max_abs() < 1e-12


def test_relative_pair_is_closed_and_real():
    bundle = torus_bundle(LAM)
    pair = thom_rel(bundle, jet_order=1)
    closed = d_rel(pair)
    for _ in range(4):
        p = _total_point()
        assert closed.alpha(p).max_abs() < 1e-10
        assert closed.beta(p).max_abs() < 1e-10
        for coeff in pair.alpha(p).terms.values():
            assert abs(jet_value(coeff).imag) < 1e-10
        for coeff in thom_mq(bundle)(p).terms.values():
            assert abs(jet_value(coeff).imag) < 1e-10


def test_zero_section_support():
    bundle = torus_bundle(LAM)
    on_zero_section = zero_section(bundle)
    assert on_zero_section(ChartPoint([0.3, 0.4, 0.0, 0.0]))
    assert not on_zero_section(ChartPoint([0.3, 0.4, 0.5, 0.0]))


def test_primitive_routes_agree_rank4():
    """Closed-form coefficients against direct quadrature, rank 4."""
    bundle = rank4_bundle()
    closed = beta_wedge(bundle, method="closed")
    quad = beta_wedge(bundle, method="quadrature")
    for _ in range(4):
        p = _total_point(base_dim=4, rank=4, r_lo=0.5, r_hi=1.6)
        want = closed(p)
        assert (quad(p) - want).max_abs() < GAMMA_TOL * max(1.0, want.max_abs())


def test_log_s_series_coefficients():
    coeffs = log_s_coefficients(4)
    want = (
        float(Fraction(1, 24)),
        float(Fraction(-1, 2880)),
        float(Fraction(1, 181440)),
        float(Fraction(-1, 9676800)),
    )
    assert np.allclose(coeffs, want, rtol=0, atol=1e-18)
    for u in (0.01, 0.04):
        series = sum(c * u ** (k + 1) for k, c in enumerate(coeffs))
        x = np.sqrt(u)
        direct = np.log(np.sinh(x / 2.0) / (x / 2.0))
        assert abs(series - direct) < 1e-12


def test_genus_factor_display_and_inverse():
    """A-hat = 1 + (d eta)^2 / 24 for one rotation block over a 4-dim base."""
    bundle = curved_base_bundle()
    genus = a_hat_genus(bundle)
    inverse = a_hat_inverse(bundle)
    for _ in range(4):
        p = ChartPoint(RNG.uniform(-1.3, 1.3, 4))
        d_eta = FormValue(
            4,
            {(1, 2): -0.4 * np.sin(p.coords[0]), (3, 4): 0.25 * np.cos(p.coords[2])},
        )
        want = FormValue.scalar(1.0, 4) + wedge(d_eta, d_eta) * (1.0 / 24.0)
        got = genus(p)
        assert (got - want).max_abs() < 1e-12
        prod = wedge(got, inverse(p))
        assert (prod - FormValue.scalar(1.0, 4)).max_abs() < 1e-12


def test_genus_of_flat_bundle_is_one():
    genus = a_hat_genus(EuclideanBundle.flat(2, 2))
    got = genus(ChartPoint([0.4, -0.9]))
    assert (got - FormValue.scalar(1.0, 2)).max_abs() == 0.0


def test_clifford_curvature_display():
    """The lifted curvature acts as (d eta / 2) diag(-i, i) on spinors."""
    bundle = torus_bundle(LAM)
    field = clifford_curvature(bundle)
    p = ChartPoint([0.7, -0.4])
    got = field(p)
    coeff = -LAM * np.sin(0.7) * 0.5
    assert abs(got.component((1, 2))[0, 0, 0] - coeff * (-1j)) < 1e-14
    assert abs(got.component((1, 2))[0, 1, 1] - coeff * (1j)) < 1e-14


def test_spin_morphism_block():
    bundle = torus_bundle(LAM)
    morphism = spin_morphism(bundle)
    p = ChartPoint([0.2, 0.3, 0.5, -0.7])
    stack = morphism.sigma(p)
    assert stack[0, 0, 0] == complex(0.5, -0.7)


def test_spin_character_scaling_of_the_relative_pair():
    """The spin-lift relative pair is (2i pi) A-hat^{-1} times the metric one."""
    bundle = torus_bundle(LAM)
    spin_pair = ch_rel(spin_morphism(bundle), spin_connection(bundle))
    metric_pair = thom_rel(bundle)
    inverse = a_hat_inverse(bundle)
    for _ in range(3):
        p = _total_point()
        lifted = lift_to_total(inverse(ChartPoint(p.coords[:2])), 2, 2)
        want_alpha = wedge(lifted, metric_pair.alpha(p)) * (2j * np.pi)
        want_beta = wedge(lifted, metric_pair.beta(p)) * (2j * np.pi)
        assert (spin_pair.alpha(p) - want_alpha).max_abs() < 1e-9
        assert (spin_pair.beta(p) - want_beta).max_abs() < 1e-9


def test_euler_form_sphere_and_odd_rank():
    total = integrate_compact(
        euler_form(sphere_bundle()), [(0.0, np.pi), (0.0, 2 * np.pi)], order=24
    )
    assert abs(total - 2.0) < 1e-10
    odd = euler_form(EuclideanBundle.flat(1, 2))
    assert odd(ChartPoint([0.3, 0.8])).max_abs() == 0.0


def test_fiber_restriction_of_gaussian_form():
    """On the fiber over a point the rank-2 form is the plane Gaussian."""
    bundle = EuclideanBundle.flat(2, 2)
    field = thom_mq(bundle)
    p = ChartPoint([0.0, 0.0, 0.6, -0.3])
    r2 = 0.6**2 + 0.3**2
    want = np.exp(-r2) / np.pi
    assert abs(field(p).value((3, 4)) - want) < 1e-14


@pytest.mark.parametrize("key", [(2, 0), (3, 1), (1, 1), (1, 2), (0, -1)])
def test_from_lower_entries_rejects_keys_outside_the_rank(key):
    """(2, 0) used to write onto the diagonal through index -1."""
    w = FormValue(2, {(1,): 0.5})
    bundle = EuclideanBundle.from_lower_entries(2, 2, lambda p: {key: w})
    with pytest.raises(ValueError, match="lower-triangular in 1..2"):
        bundle.connection(ChartPoint([0.1, 0.2]))


def test_thom_alpha_is_the_lifted_euler_form():
    """alpha does not see the fiber and equals the base Euler form, lifted."""
    for bundle in (torus_bundle(LAM), rank4_bundle()):
        mb, d = bundle.base_dim, bundle.rank
        alpha = thom_rel(bundle, jet_order=1).alpha
        euler = euler_form(bundle)
        for _ in range(3):
            base = RNG.uniform(-2.0, 2.0, mb)
            want = lift_to_total(euler(ChartPoint(base)), mb, d)
            for _ in range(3):
                got = alpha(ChartPoint([*base, *RNG.normal(0, 1, d)]))
                assert set(got.terms) == set(want.terms)
                for index, coeff in want.terms.items():
                    other = got.terms[index]
                    assert other.value == coeff.value
                    assert np.array_equal(other.grad, coeff.grad)
                # The same Pfaffian from the curvature of the lifted
                # connection on the total chart.
                w = _lifted_connection(bundle, ChartPoint([*base, *RNG.normal(0, 1, d)]))
                m = bundle.total_dim
                l2 = FormValue.zero(m, d)
                for i in range(d):
                    for j in range(i + 1, d):
                        half = curvature_entry(w, j, i) * 0.5
                        l2 = l2 + wedge(half, generator_form(m, d, (i + 1, j + 1)))
                lifted = pfaffian(l2) * (1.0 / epsilon_d(d))
                for index, coeff in lifted.terms.items():
                    assert coeff.value == got.value(index)


def test_beta_wedge_rejects_a_nan_fiber_point():
    """NaN passes the zero-section domain check; the closed form must not take it."""
    beta = beta_wedge(torus_bundle(LAM))
    with pytest.raises(ValueError, match=r"needs \|x\|\^2 > 0; got nan"):
        beta(ChartPoint([0.3, 0.4, np.nan, 0.5]))


def _bits(fv: FormValue) -> dict:
    """Every bit of a form value's coefficients, signed zeros included."""
    out = {}
    for index, c in fv.terms.items():
        if isinstance(c, Jet):
            hess = None if c.hess is None else c.hess.tobytes()
            out[index] = (np.complex128(c.value).tobytes(), c.grad.tobytes(), hess)
        else:
            out[index] = (type(c), np.complex128(c).tobytes())
    return out


THOM_FIELDS = {
    "thom_c": lambda b: thom_c(b, smooth_cutoff(4, 0.1225, 4.41, dims=(3, 4))),
    "thom_mq": lambda b: thom_mq(b, 0.8),
    "beta_wedge": lambda b: beta_wedge(b),
    "beta_wedge_jets": lambda b: beta_wedge(b, jet_order=1),
    "eta_wedge": lambda b: eta_wedge(b, 0.6),
}


@pytest.mark.parametrize("name", sorted(THOM_FIELDS))
def test_base_point_memo_never_serves_a_stale_base(name):
    """Base A, then B, then A again: each value equals a fresh field's, bit for bit."""
    build = THOM_FIELDS[name]
    bundle = torus_bundle(LAM)
    field = build(bundle)
    fibers = ([0.7, -0.4], [-1.1, 0.2])
    for base in ([0.4, -1.1], [-2.0, 0.9], [0.4, -1.1]):
        for fiber in fibers:
            p = ChartPoint([*base, *fiber])
            assert _bits(field(p)) == _bits(build(bundle)(p))


def _counting_connection(bundle: EuclideanBundle):
    calls = [0]

    def connection(p):
        calls[0] += 1
        return bundle.connection(p)

    return EuclideanBundle(bundle.rank, bundle.base_dim, connection), calls


@pytest.mark.parametrize("mode", ["compact", "gaussian"])
def test_connection_reads_do_not_grow_with_the_fiber_rule(mode):
    """Base-only quantities (W, F, the Euler form) are read once per base point."""
    counts = []
    for order in (4, 8):
        bundle, calls = _counting_connection(torus_bundle(LAM))
        if mode == "compact":
            field = thom_c(bundle, smooth_cutoff(4, 0.1225, 4.41, dims=(3, 4)))
            options = {"half_width": 2.2}
        else:
            field = thom_mq(bundle)
            options = {}
        for base in ([0.4, -1.1], [-2.0, 0.9]):
            integrate_fiber(field, (3, 4), mode=mode, base_point=base, order=order, **options)
        counts.append(calls[0])
    # One connection read per base point: alpha is the Pfaffian of the
    # same base-point curvature the primitive uses.
    assert counts[0] == counts[1] == 2


ROW_FIELDS = {
    "thom_c": lambda b: thom_c(b, smooth_cutoff(4, 0.1225, 4.41, dims=(3, 4))),
    "thom_mq": lambda b: thom_mq(b),
    "p_chi(thom_rel)": lambda b: p_chi(thom_rel(b), smooth_cutoff(4, 0.25, 4.0, dims=(3, 4))),
}


def _fiber_row(rng, base, r_lo: float, r_hi: float, k: int = 16) -> np.ndarray:
    r = rng.uniform(r_lo, r_hi, k)
    phase = rng.uniform(0.0, 2.0 * np.pi, k)
    return np.column_stack([np.tile(base, (k, 1)), r * np.cos(phase), r * np.sin(phase)])


@pytest.mark.parametrize("name", sorted(ROW_FIELDS))
def test_thom_rows_match_points(name):
    """One row call equals the single-point values node by node, bit for bit.

    Nodes inside the cutoff's band all evaluate beta, so they share one key
    set; a row across the band (and a plain Gaussian row) may only add keys
    that are exact zeros at the nodes off it.
    """
    field = ROW_FIELDS[name](torus_bundle(LAM))
    rng = np.random.default_rng(23)
    for base in ([0.4, -1.1], [-2.0, 0.9]):
        assert_row_matches_points(field, _fiber_row(rng, base, 0.6, 1.9))
        assert_row_matches_points(field, _fiber_row(rng, base, 0.05, 2.6), same_keys=False)


def test_per_base_point_rejects_a_row_over_two_base_points():
    at = _per_base_point(2, lambda base: base.tolist())
    assert at(ChartPoint([[0.4, -1.1, 0.3, 0.2], [0.4, -1.1, -0.5, 1.0]])) == [0.4, -1.1]
    row = ChartPoint([[0.4, -1.1, 0.3, 0.2], [0.4, -1.2, 0.3, 0.2]])
    with pytest.raises(ValueError, match="do not share their base coordinates"):
        at(row)
    with pytest.raises(ValueError, match="do not share their base coordinates"):
        thom_mq(torus_bundle(LAM))(row)
