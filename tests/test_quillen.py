"""Superconnection character forms: frozen values and structural identities."""

from __future__ import annotations

import numpy as np
import pytest

from chernforms import quillen
from chernforms.exterior import (
    ChartPoint,
    FormField,
    FormValue,
    OutsideDomainError,
    differentiate_value,
    partition_pair,
    smooth_cutoff,
    wedge,
)
from chernforms.jets import jet_value
from chernforms.quadrature import odd_gaussian_rule, tail_cutoff
from chernforms.quillen import (
    MorphismBundle,
    SuperConnectionData,
    _CurvaturePieces,
    _embed_factor,
    _eta_rule,
    _gaussian_rate,
    _integrate_eta,
    _tensor_layout,
    b_forms,
    beta_form,
    ch_rel,
    chern_form,
    delta_form,
    eta_form,
    tensor_connection,
    tensor_morphism,
)
from chernforms.relative import RelativeCochain, d_rel, integrate_compact, product_phi
from chernforms.scenarios import (
    bott_morphism,
    cylinder_morphism,
    plane_factor,
    radial_selector,
    torus_bundle,
)
from chernforms.superlinalg import ParitySplit, SuperMatrixForm, jet_slots, slots_form
from chernforms.thom import spin_connection, spin_morphism
from helpers import assert_row_matches_points

FROZEN_TOL = 1e-10
TRANSGRESSION_FD_TOL = 1e-6
COCYCLE_TOL = 1e-7

RNG = np.random.default_rng(5)
TRIVIAL = SuperConnectionData(None)


def _disk_point(r_lo=0.5, r_hi=2.0) -> ChartPoint:
    r = RNG.uniform(r_lo, r_hi)
    phase = RNG.uniform(0, 2 * np.pi)
    return ChartPoint([r * np.cos(phase), r * np.sin(phase)])


def test_winding_character_frozen_value():
    """Ch of the plane morphism: 2i t^2 e^{-t^2 r^2} dx dy, zero scalar part."""
    b = bott_morphism()
    for _ in range(8):
        t = RNG.uniform(0.3, 2.0)
        p = _disk_point(0.2, 2.0)
        r2 = p.coords[0] ** 2 + p.coords[1] ** 2
        got = chern_form(b, TRIVIAL, t)(p)
        want = 2j * t * t * np.exp(-(t * t) * r2)
        assert abs(got.value((1, 2)) - want) < FROZEN_TOL
        assert got.component(0).max_abs() < 1e-12
        assert got.component(1).max_abs() < 1e-12


def test_winding_transgression_frozen_value():
    """eta = 2t e^{-t^2 r^2} (i y dx - i x dy)."""
    b = bott_morphism()
    for _ in range(8):
        t = RNG.uniform(0.3, 2.0)
        p = _disk_point()
        x, y = p.coords
        decay = 2.0 * t * np.exp(-(t * t) * (x * x + y * y))
        got = eta_form(b, TRIVIAL, t)(p)
        assert abs(got.value((1,)) - 1j * y * decay) < FROZEN_TOL
        assert abs(got.value((2,)) + 1j * x * decay) < FROZEN_TOL


def test_character_at_t_zero_counts_ranks():
    got = chern_form(bott_morphism(), TRIVIAL, 0.0)(ChartPoint([0.7, -0.2]))
    assert got.value(()) == 0.0
    assert got.max_abs() == 0.0


def test_transgression_derivative_identity():
    """d/dt Ch = -d eta, by central differences in t."""
    b = bott_morphism()
    for t in (0.7, 1.4):
        p = _disk_point()
        h = 1e-4
        hi = chern_form(b, TRIVIAL, t + h)(p)
        lo = chern_form(b, TRIVIAL, t - h)(p)
        ddt = (hi - lo) * (1.0 / (2.0 * h))
        deta = differentiate_value(eta_form(b, TRIVIAL, t, jet_order=1)(p))
        assert (ddt + deta).max_abs() < TRANSGRESSION_FD_TOL


def test_character_is_closed():
    b = bott_morphism()
    for t in (0.6, 1.2):
        field = chern_form(b, TRIVIAL, t, jet_order=1)
        p = _disk_point(0.2, 1.8)
        assert differentiate_value(field(p)).max_abs() < COCYCLE_TOL


def test_interval_transgression_shifts_representative():
    """Ch(t0) - Ch(t1) = d int_{t0}^{t1} eta dt, via the finite transgression."""
    b = bott_morphism()
    t_hi = 1.3
    p = _disk_point()
    ch0 = chern_form(b, TRIVIAL, 0.0)(p)
    ch1 = chern_form(b, TRIVIAL, t_hi)(p)
    d_delta = differentiate_value(delta_form(b, TRIVIAL, t_hi, jet_order=1)(p))
    assert ((ch0 - ch1) - d_delta).max_abs() < 1e-8


def test_beta_is_primitive_off_support():
    """d beta = Ch(0) away from the degeneracy: the pair is d_rel-closed."""
    b = bott_morphism()
    pair = ch_rel(b, TRIVIAL, jet_order=1)
    closed = d_rel(pair)
    for _ in range(4):
        p = _disk_point()
        assert closed.alpha(p).max_abs() < 1e-8
        assert closed.beta(p).max_abs() < 1e-8


def test_retarded_transgression_witness():
    """chi Ch(0) + dchi beta(0) - Ch(1) = d(chi delta(1) + (chi - 1) beta(1))."""
    b = bott_morphism()
    chi = smooth_cutoff(2, 0.36, 4.41)
    delta1 = delta_form(b, TRIVIAL, 1.0, jet_order=1)
    beta1 = beta_form(b, TRIVIAL, t_lo=1.0, jet_order=1)
    beta0 = beta_form(b, TRIVIAL, jet_order=1)
    ch1 = chern_form(b, TRIVIAL, 1.0)

    for p in (_disk_point(0.7, 1.0), _disk_point(1.5, 2.0), _disk_point(2.2, 2.6)):
        chi_jet = chi(p).coefficient(())
        dchi = FormValue(2, {(1,): chi_jet.grad[0], (2,): chi_jet.grad[1]})
        lhs = wedge(dchi, beta0(p)) - ch1(p)

        witness = delta1(p) * chi_jet + beta1(p) * (chi_jet + (-1.0))
        assert (lhs - differentiate_value(witness)).max_abs() < 1e-7


def test_character_decays_super_gaussianly():
    """Off the degeneracy the character decays like e^{-c t^2}."""
    b = bott_morphism()
    p = ChartPoint([1.2, 0.0])
    c = 0.5 * 1.2**2
    envelope = max(
        chern_form(b, TRIVIAL, t)(p).max_abs() * np.exp(c * t * t)
        for t in np.linspace(0.5, 2.0, 7)
    )
    for t in (3.0, 5.0, 8.0, 10.0):
        norm = chern_form(b, TRIVIAL, t)(p).max_abs()
        assert norm <= 1.05 * envelope * np.exp(-c * t * t)


def _bump_connection(scale: float = 0.8) -> SuperConnectionData:
    """A compactly supported diagonal perturbation a(p) dx diag(1, -1)."""
    bump = smooth_cutoff(2, 0.0625, 0.25)

    def omega(p: ChartPoint) -> SuperMatrixForm:
        a = bump(p).coefficient(()) * scale
        slots = jet_slots(2, 2)
        arr = np.zeros((slots, 2, 2), complex)
        diag = np.diag([1.0, -1.0])
        arr[0] = a.value * diag
        arr[1] = a.grad[0] * diag
        arr[2] = a.grad[1] * diag
        arr[3:] = a.hess.reshape(-1)[:, None, None] * diag[None]
        return SuperMatrixForm(ParitySplit(1, 1), 2, {(1,): arr})

    return SuperConnectionData(omega)


def test_connection_independence_of_the_integral():
    """Two connections agreeing outside a small disk give the same integral.

    The perturbed character differs pointwise inside the disk but the
    difference is exact with compact support, so its box integral vanishes.
    """
    b = bott_morphism()
    pert = _bump_connection()
    t = 1.0
    ch_plain = chern_form(b, TRIVIAL, t)
    ch_pert = chern_form(b, pert, t)

    center = ChartPoint([0.1, 0.05])
    assert (ch_pert(center) - ch_plain(center)).max_abs() > 1e-3

    diff = FormField(2, lambda p: ch_pert(p) - ch_plain(p))
    total = integrate_compact(diff, [(-0.6, 0.6), (-0.6, 0.6)], order=48)
    assert abs(total) < 1e-6


def test_tensor_morphism_layout():
    """The product morphism is [[z1, -conj(z2)], [z2, conj(z1)]] in the paired basis."""
    b1, b2 = plane_factor(1), plane_factor(2)
    prod = tensor_morphism(b1, b2)
    p = ChartPoint([0.3, 0.7, -0.4, 0.2])
    z1 = complex(0.3, 0.7)
    z2 = complex(-0.4, 0.2)
    stack = prod.sigma(p)
    assert stack.shape[1:] == (2, 2)
    want = np.array([[z1, -np.conj(z2)], [z2, np.conj(z1)]])
    assert np.allclose(stack[0], want, atol=1e-14)


def test_embed_factor_matches_entrywise_reference():
    """The index-array embedding equals the entry-by-entry Koszul rule."""
    rng = np.random.default_rng(5)
    for s1, s2 in ((ParitySplit(1, 1), ParitySplit(1, 1)), (ParitySplit(2, 1), ParitySplit(1, 2))):
        first, second, split = _tensor_layout(s1, s2)
        g1, g2 = s1.grading(), s2.grading()
        n = split.dim
        for which, size in ((1, s1.dim), (2, s2.dim)):
            arr = rng.normal(size=(3, size, size)) + 1j * rng.normal(size=(3, size, size))
            want = np.zeros((3, n, n), dtype=complex)
            for r in range(n):
                for c in range(n):
                    if which == 1 and second[r] == second[c]:
                        want[:, r, c] = arr[:, first[r], first[c]]
                    elif which == 2 and first[r] == first[c]:
                        odd = g2[second[r]] * g2[second[c]] < 0 and g1[first[r]] < 0
                        want[:, r, c] = (-1.0 if odd else 1.0) * arr[:, second[r], second[c]]
            assert np.array_equal(_embed_factor(arr, s1, s2, which), want)


def test_character_is_multiplicative():
    """Ch of the product equals the wedge of the factor characters."""
    b1, b2 = plane_factor(1), plane_factor(2)
    prod = tensor_morphism(b1, b2)
    conn = tensor_connection(b1, b2, TRIVIAL, TRIVIAL)
    for t in (0.6, 1.1):
        ch_prod = chern_form(prod, conn, t)
        ch1 = chern_form(b1, TRIVIAL, t)
        ch2 = chern_form(b2, TRIVIAL, t)
        for _ in range(4):
            p = ChartPoint(RNG.uniform(-1.4, 1.4, 4))
            got = ch_prod(p)
            want = wedge(ch1(p), ch2(p))
            assert (got - want).max_abs() < 1e-9


def test_product_defect_is_relative_exact():
    """The product-vs-pair defect is d_rel of the double-integral forms."""
    b1, b2 = plane_factor(1), plane_factor(2)
    prod = tensor_morphism(b1, b2)
    conn = tensor_connection(b1, b2, TRIVIAL, TRIVIAL)
    phis = partition_pair(radial_selector())

    pair_prod = ch_rel(prod, conn)
    pair_phi = product_phi(ch_rel(b1, TRIVIAL), ch_rel(b2, TRIVIAL), phis)
    bf1, bf2 = b_forms(b1, TRIVIAL, b2, TRIVIAL, phis, jet_order=1)
    correction = d_rel(
        RelativeCochain(
            FormField(4, lambda p: FormValue.zero(4)),
            FormField(4, lambda p: bf2(p) - bf1(p)),
        )
    )
    for _ in range(3):
        r = RNG.uniform(0.6, 1.4, 2)
        ph = RNG.uniform(0, 2 * np.pi, 2)
        p = ChartPoint(
            [r[0] * np.cos(ph[0]), r[0] * np.sin(ph[0]), r[1] * np.cos(ph[1]), r[1] * np.sin(ph[1])]
        )
        defect = pair_prod.beta(p) - pair_phi.beta(p)
        assert (defect - correction.beta(p)).max_abs() < 1e-6
        assert (pair_prod.alpha(p) - pair_phi.alpha(p)).max_abs() < 1e-10


def test_tensor_morphism_support_is_the_common_zero_locus():
    """The product is singular only where z1 = z2 = 0, so beta12 exists elsewhere."""
    b1, b2 = plane_factor(1), plane_factor(2)
    prod = tensor_morphism(b1, b2)
    assert prod.support(ChartPoint([0.0, 0.0, 0.0, 0.0]))
    for coords in ([0.0, 0.0, 0.3, 0.0], [0.0, 0.2, 0.0, 0.0], [0.5, 0.1, -0.3, 0.4]):
        assert not prod.support(ChartPoint(coords))
    beta12 = beta_form(prod, tensor_connection(b1, b2, TRIVIAL, TRIVIAL))
    with pytest.raises(OutsideDomainError):
        beta12(ChartPoint([0.0, 0.0, 0.0, 0.0]))


def test_cylinder_winding_branches():
    b = cylinder_morphism()
    beta = beta_form(b, TRIVIAL)
    high = beta(ChartPoint([1.0, 1.5]))
    assert (high - FormValue(2, {(1,): -1j})).max_abs() < 1e-8
    low = beta(ChartPoint([4.0, -1.0]))
    assert low.max_abs() < 1e-8


def test_eta_quadrature_that_cannot_converge_raises():
    """On [0, 1000] order 256 cannot resolve eta; no unconverged iterate comes back."""
    delta = delta_form(bott_morphism(), TRIVIAL, 1000.0)
    with pytest.raises(RuntimeError, match="did not converge"):
        delta(ChartPoint([1.0, 0.5]))


def test_eta_quadrature_with_a_nan_step_raises():
    """max() drops a NaN step size, so a NaN point used to count as converged."""
    delta = delta_form(bott_morphism(), TRIVIAL, 2.0)
    with pytest.raises(ValueError, match="not finite"):
        delta(ChartPoint([np.nan, 0.5]))


# -- eta integrals by the exact tail rule ------------------------------------

# Agreement of the exact rule with the order-doubling Gauss-Legendre route,
# whose own convergence tolerance is BETA_QUAD_TOL = 1e-10.
BETA_RULE_TOL = 1e-10
# The rule at a higher degree bound integrates the same polynomial exactly.
BETA_RULE_ROUNDOFF = 1e-13
RULE_POINTS = 20
RULE_CASES = ("bott", "cylinder", "c2-product", "spin")
ODD_POINTS = 4
# B1 + B2 against beta1 ^ beta2: both sides are exact rules, so round-off only.
B_SPLIT_TOL = 1e-12


def _rule_cases():
    """(morphism, connection, seeded point sampler) for every morphism family.

    The spin morphism carries the spin connection, so Y = d omega + omega^2
    is not zero there.
    """
    b1, b2 = plane_factor(1), plane_factor(2)
    torus = torus_bundle(0.3)

    def disk(rng):
        r, ph = rng.uniform(0.5, 2.0), rng.uniform(0, 2 * np.pi)
        return [r * np.cos(ph), r * np.sin(ph)]

    def cylinder(rng):
        return [rng.uniform(0.3, 2 * np.pi - 0.3), rng.uniform(-0.6, 1.6)]

    def c2(rng):
        r, ph = rng.uniform(0.5, 1.6, 2), rng.uniform(0, 2 * np.pi, 2)
        return [*(r[0] * np.array([np.cos(ph[0]), np.sin(ph[0])])),
                *(r[1] * np.array([np.cos(ph[1]), np.sin(ph[1])]))]

    def total(rng):
        return [*rng.uniform(-np.pi + 0.3, np.pi - 0.3, 2), *disk(rng)]

    return {
        "bott": (bott_morphism(), TRIVIAL, disk),
        "cylinder": (cylinder_morphism(), TRIVIAL, cylinder),
        "c2-product": (tensor_morphism(b1, b2), tensor_connection(b1, b2, TRIVIAL, TRIVIAL), c2),
        "spin": (spin_morphism(torus), spin_connection(torus), total),
    }


def _doubling_beta(b, a, p, t_lo, jet_order) -> FormValue:
    """int_{t_lo}^{T0} eta by order-doubling Gauss-Legendre (T0 the tail cutoff)."""
    pieces = _CurvaturePieces(b, a, p, jet_order)
    h = _gaussian_rate(pieces)
    if t_lo == 0.0:
        return delta_form(b, a, tail_cutoff(h, 0.0), jet_order)(p)
    return slots_form(_integrate_eta(pieces, t_lo, tail_cutoff(h, t_lo)), b.chart_dim)


def _rule_beta(b, a, p, jet_order, degree) -> FormValue:
    """int_0^inf eta by the tail rule at an explicit degree bound."""
    pieces = _CurvaturePieces(b, a, p, jet_order)
    h = float(np.real(pieces.v2.component(())[0, 0, 0]))
    return slots_form(_eta_rule(pieces, *odd_gaussian_rule(degree, h)), b.chart_dim)


@pytest.mark.parametrize("jet_order", [0, 1])
@pytest.mark.parametrize("name", RULE_CASES)
def test_beta_rule_matches_doubling_quadrature(name, jet_order):
    """beta_form (one batch at the exact tail-rule nodes) against the doubling
    Gauss-Legendre route on [t_lo, T0], at t_lo = 0 and 1 alternately; and
    against the rule at degree bound D + 4 (more nodes) to round-off. The
    bound has slack on these cases: a single Laguerre node already matches
    D + 4, so exactness in D itself is tested in test_quadrature."""
    b, a, sample = _rule_cases()[name]
    rng = np.random.default_rng([17, jet_order, RULE_CASES.index(name)])
    degree = b.chart_dim + 2 * jet_order
    beta = {t_lo: beta_form(b, a, t_lo=t_lo, jet_order=jet_order) for t_lo in (0.0, 1.0)}
    for n in range(RULE_POINTS):
        p = ChartPoint(sample(rng))
        t_lo = float(n % 2)
        got = beta[t_lo](p)
        assert (got - _doubling_beta(b, a, p, t_lo, jet_order)).max_abs() < BETA_RULE_TOL
        if t_lo == 0.0:
            wider = _rule_beta(b, a, p, jet_order, degree + 4)
            assert (got - wider).max_abs() < BETA_RULE_ROUNDOFF * max(1.0, wider.max_abs())


def _jet_max_abs(fv: FormValue) -> float:
    """Largest |value| or |first derivative| over the coefficients of a form."""
    return max(
        (max(abs(jet_value(c)), np.abs(getattr(c, "grad", 0.0)).max()) for c in fv.terms.values()),
        default=0.0,
    )


@pytest.mark.parametrize("jet_order", [0, 1])
@pytest.mark.parametrize("name", RULE_CASES)
def test_eta_is_odd_in_t(name, jet_order):
    """eta(t) + eta(-t) = 0 exactly: the premise of the odd tail rule."""
    b, a, sample = _rule_cases()[name]
    rng = np.random.default_rng([23, jet_order, RULE_CASES.index(name)])
    etas = {t: eta_form(b, a, t, jet_order) for t in (0.3, 0.9, 1.7, -0.3, -0.9, -1.7)}
    for _ in range(ODD_POINTS):
        p = ChartPoint(sample(rng))
        for t in (0.3, 0.9, 1.7):
            assert _jet_max_abs(etas[t](p) + etas[-t](p)) == 0.0


@pytest.mark.parametrize("jet_order", [0, 1])
def test_b_forms_split_beta1_wedge_beta2(jet_order):
    """With phi1 = phi2 = 1 the two ordered halves add up to the whole square:
    B1 + B2 = beta1(0) ^ beta2(0), value and first derivatives."""
    b1, b2 = plane_factor(1), plane_factor(2)
    one = FormField(4, lambda p: FormValue(4, {(): 1.0}))
    bf1, bf2 = b_forms(b1, TRIVIAL, b2, TRIVIAL, (one, one), jet_order=jet_order)
    beta1 = beta_form(b1, TRIVIAL, jet_order=jet_order)
    beta2 = beta_form(b2, TRIVIAL, jet_order=jet_order)
    sample = _rule_cases()["c2-product"][2]
    rng = np.random.default_rng([29, jet_order])
    for _ in range(RULE_POINTS):
        p = ChartPoint(sample(rng))
        split = bf1(p) + bf2(p) - wedge(beta1(p), beta2(p))
        assert _jet_max_abs(split) < B_SPLIT_TOL


def test_beta_at_a_nan_point_raises():
    """No tail cutoff is taken on the exact-rule path; h = NaN must still raise."""
    beta = beta_form(bott_morphism(), TRIVIAL)
    with pytest.raises(ValueError, match="no Gaussian decay"):
        beta(ChartPoint([np.nan, 0.5]))


def test_beta_at_a_non_finite_lower_limit_raises():
    beta = beta_form(bott_morphism(), TRIVIAL, t_lo=np.nan)
    with pytest.raises(ValueError, match="must be finite"):
        beta(ChartPoint([1.0, 0.5]))


def test_beta_needs_a_scalar_v_squared(monkeypatch):
    """sigma = diag(z, 2z) has v^2 = diag(r^2, 4 r^2, ...): no single Gaussian
    rate. beta_form and both b_forms fields refuse it before any exponential."""

    def sigma(p):
        z = complex(*p.coords)
        out = np.zeros((7, 2, 2), dtype=complex)
        out[0] = np.diag([z, 2 * z])
        out[1] = np.diag([1.0, 2.0])
        out[2] = np.diag([1j, 2j])
        return out

    b = MorphismBundle(ParitySplit(2, 2), 2, sigma, lambda p: not np.any(p.coords))

    def no_exponential(*args, **kwargs):
        raise AssertionError("graded_exp called before the v^2 check")

    monkeypatch.setattr(quillen, "graded_exp", no_exponential)
    one = FormField(2, lambda p: FormValue(2, {(): 1.0}))
    bf1, bf2 = b_forms(b, TRIVIAL, bott_morphism(), TRIVIAL, (one, one))
    for field in (beta_form(b, TRIVIAL), bf1, bf2):
        with pytest.raises(ValueError, match="v\\^2 is not h I"):
            field(ChartPoint([0.8, -0.3]))


@pytest.mark.parametrize("jet_order", [0, 1])
def test_bott_chern_form_row_matches_points(jet_order):
    """Node axes sit ahead of the t-axis and graded_exp scales each node on
    its own, so a row of the Gaussian integral's nodes (|z| from 0 to 6, up to
    seven squarings) gives every node its single-point bits."""
    field = chern_form(bott_morphism(), SuperConnectionData(None), 1.0, jet_order=jet_order)
    rng = np.random.default_rng(31)
    r = np.concatenate([[0.0, 0.05], rng.uniform(0.0, 6.0, 30)])
    phase = rng.uniform(0.0, 2.0 * np.pi, r.size)
    coords = np.column_stack([r * np.cos(phase), r * np.sin(phase)])
    assert_row_matches_points(field, coords)
    support = bott_morphism().support(ChartPoint(coords))
    assert support.tolist() == [True] + [False] * (r.size - 1)
