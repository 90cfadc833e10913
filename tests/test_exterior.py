"""Chart-level exterior algebra: wedge signs, derivatives, cutoffs."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chernforms.exterior import (
    ChartPoint,
    FormField,
    FormValue,
    OutsideDomainError,
    as_point,
    degree_involution,
    differentiate_value,
    epsilon_sign,
    exterior_derivative,
    partition_pair,
    smooth_cutoff,
    wedge,
)
from chernforms.jets import jet_coordinates
from helpers import assert_row_matches_points, poly_form_field, rand_points

LEIBNIZ_TOL = 1e-10
DD_TOL = 1e-9
FD_STEP = 1e-5
FD_REL_TOL = 1e-6

RNG = np.random.default_rng(42)


def test_epsilon_sign_basics():
    assert epsilon_sign((1,), (2,)) == 1
    assert epsilon_sign((2,), (1,)) == -1
    assert epsilon_sign((1,), (1,)) == 0
    assert epsilon_sign((), (3, 4)) == 1
    assert epsilon_sign((2, 4), (1, 3)) == -1


def test_wedge_graded_commutativity():
    m = 4
    for _ in range(30):
        ka = int(RNG.integers(0, m + 1))
        kb = int(RNG.integers(0, m + 1))
        a = _rand_numeric_form(m, ka)
        b = _rand_numeric_form(m, kb)
        sign = (-1.0) ** (ka * kb)
        diff = wedge(a, b) - wedge(b, a) * sign
        assert diff.max_abs() < 1e-12


def _rand_numeric_form(m: int, degree: int) -> FormValue:
    from itertools import combinations

    terms = {}
    for index in combinations(range(1, m + 1), degree):
        terms[index] = complex(RNG.normal(), RNG.normal())
    return FormValue(m, terms)


def test_degree_involution_signs():
    v = FormValue(3, {(): 2.0, (1,): 3.0, (1, 2): 5.0, (1, 2, 3): 7.0})
    w = degree_involution(v)
    assert w.value(()) == 2.0
    assert w.value((1,)) == -3.0
    assert w.value((1, 2)) == 5.0
    assert w.value((1, 2, 3)) == -7.0


def test_leibniz_rule():
    m = 3
    for _ in range(25):
        ka = int(RNG.integers(0, 3))
        kb = int(RNG.integers(0, 3))
        a = poly_form_field(RNG, m, ka)
        b = poly_form_field(RNG, m, kb)
        (p,) = rand_points(RNG, m, 1)
        av, bv = a(p), b(p)
        lhs = differentiate_value(wedge(av, bv))
        rhs = wedge(differentiate_value(av), bv) + wedge(
            av, differentiate_value(bv)
        ) * ((-1.0) ** ka)
        assert (lhs - rhs).max_abs() < LEIBNIZ_TOL


def test_dd_is_zero():
    m = 4
    for _ in range(25):
        k = int(RNG.integers(0, 3))
        f = poly_form_field(RNG, m, k)
        (p,) = rand_points(RNG, m, 1)
        ddf = exterior_derivative(exterior_derivative(f))(p)
        assert ddf.max_abs() < DD_TOL


def test_cutoff_plateaus_are_exact():
    chi = smooth_cutoff(2, 1.0, 4.0)
    inside = chi(ChartPoint([0.3, 0.4])).coefficient(())
    outside = chi(ChartPoint([2.0, 1.5])).coefficient(())
    assert inside.value == 1.0
    assert np.all(inside.grad == 0.0) and np.all(inside.hess == 0.0)
    assert outside.value == 0.0
    assert np.all(outside.grad == 0.0) and np.all(outside.hess == 0.0)


def test_cutoff_jets_match_finite_differences():
    chi = smooth_cutoff(2, 1.0, 4.0)

    def chi_val(x, y) -> float:
        return chi(ChartPoint([x, y])).value(()).real

    for _ in range(10):
        r = RNG.uniform(1.1, 1.9)
        phase = RNG.uniform(0, 2 * np.pi)
        x, y = r * np.cos(phase), r * np.sin(phase)
        jet = chi(ChartPoint([x, y])).coefficient(())
        h = FD_STEP
        fd_dx = (chi_val(x + h, y) - chi_val(x - h, y)) / (2 * h)
        fd_dy = (chi_val(x, y + h) - chi_val(x, y - h)) / (2 * h)
        scale = max(abs(fd_dx), abs(fd_dy), 1.0)
        assert abs(jet.grad[0].real - fd_dx) < FD_REL_TOL * scale
        assert abs(jet.grad[1].real - fd_dy) < FD_REL_TOL * scale
        fd_dxx = (chi_val(x + h, y) - 2 * chi_val(x, y) + chi_val(x - h, y)) / h**2
        fd_dxy = (
            chi_val(x + h, y + h)
            - chi_val(x + h, y - h)
            - chi_val(x - h, y + h)
            + chi_val(x - h, y - h)
        ) / (4 * h**2)
        hscale = max(abs(fd_dxx), abs(fd_dxy), 1.0)
        assert abs(jet.hess[0, 0].real - fd_dxx) < 10 * FD_REL_TOL * hscale
        assert abs(jet.hess[0, 1].real - fd_dxy) < 10 * FD_REL_TOL * hscale


def test_cutoff_restricted_dims():
    chi = smooth_cutoff(3, 1.0, 4.0, dims=(3,))
    v = chi(ChartPoint([50.0, -50.0, 0.5])).value(())
    assert v == 1.0
    v = chi(ChartPoint([0.0, 0.0, 2.5])).value(())
    assert v == 0.0


@pytest.mark.parametrize("dims", [(0,), (3,), (-1,), (1, 0)])
def test_cutoff_rejects_dims_outside_the_chart(dims):
    with pytest.raises(ValueError, match="not all in 1..2"):
        smooth_cutoff(2, 0.1, 1.0, dims=dims)


def test_partition_pair_sums_to_one_and_saturates():
    def selector(p: ChartPoint) -> FormValue:
        jets = jet_coordinates(p.coords, order=2)
        return FormValue(1, {(): (jets[0] * jets[0])})

    phi1, phi2 = partition_pair(FormField(1, selector))
    for x in RNG.uniform(-1.3, 1.3, 40):
        p = ChartPoint([x])
        s = phi1(p).value(()) + phi2(p).value(())
        assert abs(s - 1.0) < 1e-14
    assert phi1(ChartPoint([0.3])).value(()) == 0.0
    assert phi1(ChartPoint([1.2])).value(()) == 1.0


def test_field_domain_raises():
    field = FormField(
        1,
        lambda p: FormValue.scalar(1.0, 1),
        domain=lambda p: p.coords[0] > 0,
        name="halfline",
    )
    assert field(ChartPoint([0.5])).value(()) == 1.0
    with pytest.raises(OutsideDomainError):
        field(ChartPoint([-0.5]))


def test_field_domain_names_the_first_node_outside():
    field = FormField(
        1,
        lambda p: FormValue.scalar(1.0, 1),
        domain=lambda p: p.coords[..., 0] > 0,
        name="halfline",
    )
    field(ChartPoint([[0.5], [1.5]]))
    first = r"halfline evaluated at node 2 of a row, ChartPoint\(\[-0\.25\]\)"
    with pytest.raises(OutsideDomainError, match=first):
        field(ChartPoint([[0.5], [1.5], [-0.25], [-1.0]]))


def test_chart_point_rejects_more_than_two_axes():
    assert ChartPoint(np.zeros((3, 2))).dim == 2
    with pytest.raises(ValueError, match=r"\(nodes, m\) row; got shape \(2, 3, 2\)"):
        ChartPoint(np.zeros((2, 3, 2)))


@pytest.mark.parametrize("dims", [None, (2, 3)])
def test_cutoff_row_matches_points(dims):
    """Nodes inside, across and outside the band, in one row."""
    chi = smooth_cutoff(3, 0.3, 2.5, dims=dims)
    coords = np.random.default_rng(8).uniform(-1.6, 1.6, (40, 3))
    assert_row_matches_points(chi, coords)
    assert_row_matches_points(exterior_derivative(chi), coords)


def test_as_point_and_dims():
    p = as_point([1.0, 2.0])
    assert p.dim == 2
    assert as_point(p) is p
    q = FormField(2, lambda pt: FormValue.scalar(0.0, 2))
    with pytest.raises(ValueError):
        q(ChartPoint([1.0]))


@given(
    xs=st.lists(
        st.floats(min_value=-30.0, max_value=30.0, allow_nan=False), min_size=1, max_size=1
    )
)
def test_smooth_step_stays_in_range(xs):
    from chernforms.jets import smooth_step

    v = smooth_step(xs[0])
    assert 0.0 <= v <= 1.0
    if xs[0] <= 0.0:
        assert v == 0.0
    if xs[0] >= 1.0:
        assert v == 1.0


@given(data=st.data())
def test_epsilon_sign_shuffle_antisymmetry(data):
    indices = data.draw(st.permutations(range(1, 5)))
    i = tuple(indices[:2])
    j = tuple(indices[2:])
    si = tuple(sorted(i))
    sj = tuple(sorted(j))
    lhs = epsilon_sign(si, sj)
    rhs = epsilon_sign(sj, si)
    assert lhs == rhs * (-1) ** (len(si) * len(sj))


def test_form_value_component_and_prune():
    v = FormValue(2, {(): 1.0, (1,): 1e-18, (1, 2): 3.0})
    assert v.component(1).max_abs() == 1e-18
    pruned = v.prune(1e-12)
    assert (1,) not in pruned.terms
    assert pruned.value((1, 2)) == 3.0
    assert v.degrees() == {0, 1, 2}


@pytest.mark.parametrize(
    "index, fiber_dim",
    [((3,), 0), ((1, 5), 2), ((4, 3), 2), ((3, 3), 2), ((0,), 2), ((2, 1), 2)],
)
def test_fiber_labels_outside_the_range_or_unsorted_raise(index, fiber_dim):
    with pytest.raises(ValueError, match="strictly increasing"):
        FormValue(2, {index: 1.0}, fiber_dim=fiber_dim)


def test_fiber_generator_counts_must_agree():
    e1 = FormValue(2, {(3,): 1.0}, fiber_dim=2)
    assert FormValue(2, {(1, 3, 4): 1.0}, fiber_dim=2).fiber_dim == 2
    assert wedge(FormValue(2, {(1,): 1.0}), e1).fiber_dim == 2
    with pytest.raises(ValueError, match="fiber generator count"):
        wedge(e1, FormValue(2, {(3,): 1.0}, fiber_dim=3))
    with pytest.raises(ValueError, match="fiber generator count"):
        e1 + FormValue(2, {(3,): 1.0}, fiber_dim=1)
    with pytest.raises(ValueError, match="not a count"):
        FormValue(2, {}, fiber_dim=-1)


def test_exterior_derivative_skips_fiber_labels():
    """d((f dx_1) e_1) = (df dx_1) e_1: only chart labels are differentiated."""
    x = jet_coordinates([0.3, -0.4], order=2)
    fv = FormValue(2, {(1, 3): x[1] * x[1]}, fiber_dim=1)
    got = differentiate_value(fv)
    assert got.fiber_dim == 1
    assert set(got.terms) == {(1, 2, 3)}
    assert got.value((1, 2, 3)) == -(2 * -0.4)  # dx_2 ^ dx_1 = -dx_1 dx_2
