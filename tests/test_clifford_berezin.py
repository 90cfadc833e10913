"""Lambda(V)-valued forms: Clifford product, Berezin integral, spinors."""

from __future__ import annotations

from itertools import combinations, permutations

import numpy as np
import pytest

from chernforms.clifford_berezin import (
    algebra_mul,
    berezin_T,
    clifford_exp_dim2,
    contraction,
    default_spinor_rep,
    evaluate_entire,
    generator_coefficient,
    generator_form,
    pfaffian,
    spinor_rep,
    wedge_exp,
)
from chernforms.exterior import FormValue, degree_involution, merge_multiindex, wedge
from chernforms.superlinalg import graded_exp, supertrace

ASSOC_TOL = 1e-10
RELATION_TOL = 1e-9

RNG = np.random.default_rng(11)


def _monomial(m: int, dim_v: int, index, subset, coeff) -> FormValue:
    """coeff dx_index e_subset as a Lambda(V)-valued form."""
    return wedge(FormValue(m, {tuple(index): coeff}), generator_form(m, dim_v, subset))


def _rand_element(dim_v: int, m: int, numeric=True) -> FormValue:
    out = FormValue.zero(m, dim_v)
    for k in range(dim_v + 1):
        for subset in combinations(range(1, dim_v + 1), k):
            if RNG.random() < 0.45:
                continue
            coeff = complex(RNG.normal(), RNG.normal())
            index = ()
            if not numeric:
                deg = int(RNG.integers(0, m + 1))
                index = tuple(sorted(RNG.choice(range(1, m + 1), deg, replace=False)))
            out = out + _monomial(m, dim_v, index, subset, coeff)
    return out


def test_clifford_relations():
    """c_i c_j + c_j c_i = -2 delta_ij."""
    dim_v, m = 4, 2
    one = FormValue.scalar(1.0, m)
    for i in range(1, dim_v + 1):
        for j in range(1, dim_v + 1):
            ci = generator_form(m, dim_v, (i,))
            cj = generator_form(m, dim_v, (j,))
            anti = algebra_mul(ci, cj) + algebra_mul(cj, ci)
            if i == j:
                assert (generator_coefficient(anti, ()) + one * 2.0).max_abs() < 1e-14
            else:
                assert anti.max_abs() < 1e-14


def test_algebra_mul_associativity():
    for mul in (wedge, algebra_mul):
        for _ in range(15):
            a = _rand_element(3, 2, numeric=False)
            b = _rand_element(3, 2, numeric=False)
            c = _rand_element(3, 2, numeric=False)
            left = mul(mul(a, b), c)
            right = mul(a, mul(b, c))
            assert (left - right).max_abs() < ASSOC_TOL


def _by_subset(a: FormValue) -> dict:
    """{generator subset: chart form} of a Lambda(V)-valued form."""
    m = a.chart_dim
    out = {}
    for index, coeff in a.terms.items():
        form = tuple(i for i in index if i <= m)
        subset = tuple(i - m for i in index if i > m)
        out.setdefault(subset, {})[form] = coeff
    return {s: FormValue(m, terms) for s, terms in out.items()}


def _reference_wedge(a: dict, b: dict) -> dict:
    """The subset-dict product rule: (alpha e_S)(beta e_T) =
    (-1)^{|S| deg beta} (alpha ^ beta) e_S e_T, with the degree involution
    applied to beta per homogeneous component."""
    out = {}
    for s_left, f_left in a.items():
        odd_word = len(s_left) % 2 == 1
        for s_right, f_right in b.items():
            adj = degree_involution(f_right) if odd_word else f_right
            sign, merged = merge_multiindex(s_left, s_right)
            if sign == 0:
                continue
            coeff = wedge(f_left, adj)
            if sign < 0:
                coeff = -coeff
            out[merged] = out[merged] + coeff if merged in out else coeff
    return out


@pytest.mark.parametrize("dim_v", [1, 2, 3])
def test_wedge_on_fiber_labels_is_the_koszul_rule(dim_v):
    """wedge on extended indices equals the subset-dict rule, exactly.

    Integer-valued coefficients make every sum exact, so the comparison
    checks signs and merged indices independently of summation order.
    """
    rng = np.random.default_rng(dim_v)
    m = 3

    def element():
        out = FormValue.zero(m, dim_v)
        for _ in range(int(rng.integers(1, 7))):
            subset = tuple(
                sorted(rng.choice(range(1, dim_v + 1), int(rng.integers(0, dim_v + 1)), replace=False))
            )
            index = tuple(sorted(rng.choice(range(1, m + 1), int(rng.integers(0, m + 1)), replace=False)))
            coeff = complex(int(rng.integers(-4, 5)), int(rng.integers(-4, 5)))
            out = out + _monomial(m, dim_v, index, subset, coeff)
        return out

    for _ in range(40):
        a, b = element(), element()
        want = _reference_wedge(_by_subset(a), _by_subset(b))
        got = _by_subset(wedge(a, b))
        assert {s: fv.terms for s, fv in got.items()} == {
            s: fv.terms for s, fv in want.items() if fv.terms
        }


def test_berezin_kills_contractions():
    """T(iota_x a) = 0: the contraction lands below top generator degree."""
    for _ in range(15):
        a = _rand_element(4, 2, numeric=True)
        xs = RNG.normal(0, 1, 4)
        out = berezin_T(contraction(a, list(xs)))
        assert out.max_abs() == 0.0


def test_contraction_is_odd_derivation():
    dim_v, m = 4, 2
    xs = list(RNG.normal(0, 1, dim_v))
    for k in range(dim_v + 1):
        subsets = list(combinations(range(1, dim_v + 1), k))
        subset = subsets[int(RNG.integers(len(subsets)))]
        a = generator_form(m, dim_v, subset) * complex(RNG.normal())
        b = _rand_element(dim_v, m, numeric=True)
        lhs = contraction(wedge(a, b), xs)
        sign = (-1.0) ** k
        rhs = wedge(contraction(a, xs), b) + wedge(a, contraction(b, xs)) * sign
        assert (lhs - rhs).max_abs() < 1e-12


def test_pfaffian_against_matching_sum():
    """Brute-force perfect-matching oracle for the 4x4 Pfaffian."""
    dim_v, m = 4, 2
    for _ in range(10):
        a = RNG.normal(0, 1, (dim_v, dim_v))
        a = a - a.T
        l2 = FormValue.zero(m, dim_v)
        mat = np.zeros((dim_v, dim_v))
        for i, j in combinations(range(1, dim_v + 1), 2):
            coeff = a[i - 1, j - 1]
            l2 = l2 + generator_form(m, dim_v, (i, j)) * coeff
            mat[i - 1, j - 1] = coeff
            mat[j - 1, i - 1] = -coeff
        got = pfaffian(l2).value(())
        want = 0.0
        for perm in permutations(range(dim_v)):
            if perm[0] > perm[1] or perm[2] > perm[3] or perm[0] > perm[2]:
                continue
            want += _perm_sign(perm) * mat[perm[0], perm[1]] * mat[perm[2], perm[3]]
        assert abs(got - want) < 1e-12


def _perm_sign(perm) -> float:
    sign = 1.0
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def test_wedge_exp_top_term():
    m = 2
    b1, b2 = RNG.normal(), RNG.normal()
    l2 = generator_form(m, 4, (1, 2)) * b1 + generator_form(m, 4, (3, 4)) * b2
    top = berezin_T(wedge_exp(l2)).value(())
    assert abs(top - b1 * b2) < 1e-14


def test_wedge_exp_rejects_a_scalar_part():
    """A truncated series of 3 + e1 e2 would give T = 13, not e^3."""
    m = 2
    e12 = generator_form(m, 2, (1, 2))
    with pytest.raises(ValueError, match="scalar_part"):
        wedge_exp(e12 + FormValue.scalar(3.0, m))
    top = berezin_T(wedge_exp(e12, scalar_part=3.0)).value(())
    assert abs(top - np.exp(3.0)) < 1e-12


def test_supertrace_relation_dim2():
    """Str of the spinor exponential against the Berezin route.

    For a = b c_1 c_2 the spinor supertrace of exp(a) factors through the
    half-determinant j(tau(a))^{1/2} = sin(b)/b times the Berezin integral
    of the wedge exponential; both sides reduce to -2i sin(b). Here tau(a)
    is the rotation generator with angle phi = 2b, normalized by
    tau(c_1 c_2) e_1 = 2 e_2.
    """
    m = 2
    rep = default_spinor_rep()
    zero = FormValue.zero(m)
    for _ in range(20):
        b = complex(RNG.normal(0, 0.8), RNG.normal(0, 0.3))
        bfv = FormValue.scalar(b, m)
        element = wedge(bfv, generator_form(m, 2, (1, 2)))
        lhs = supertrace(graded_exp(spinor_rep(element, rep))).value(())

        phi = 2.0 * b
        half_det = np.sin(phi / 2.0) / (phi / 2.0)
        berezin = berezin_T(wedge_exp(element)).value(())
        rhs = -2j * half_det * berezin
        assert abs(lhs - rhs) < RELATION_TOL
        assert abs(lhs - (-2j) * np.sin(b)) < RELATION_TOL

        # same relation with the closed-form exponential on the left
        closed = supertrace(spinor_rep(clifford_exp_dim2(zero, zero, bfv), rep))
        assert abs(closed.value(()) - rhs) < RELATION_TOL


def test_supertrace_relation_with_form_parts():
    """The dim-2 relation survives nilpotent form coefficients."""
    m = 2
    rep = default_spinor_rep()
    for _ in range(10):
        b0 = complex(RNG.normal(0, 0.6), RNG.normal(0, 0.2))
        b2 = complex(RNG.normal(), RNG.normal())
        bfv = FormValue(m, {(): b0, (1, 2): b2})
        element = wedge(bfv, generator_form(m, 2, (1, 2)))
        lhs = supertrace(graded_exp(spinor_rep(element, rep)))

        # sin(b)/b of the full (scalar + nilpotent) coefficient
        half_det = evaluate_entire("sinc", bfv)
        berezin = berezin_T(wedge_exp(element))
        rhs = wedge(half_det, berezin) * -2j
        assert (lhs - rhs).max_abs() < RELATION_TOL


def test_clifford_exp_dim2_against_matrix_exp():
    m = 2
    rep = default_spinor_rep()
    for _ in range(10):
        def cnum(scale=0.7):
            return complex(RNG.normal(0, scale), RNG.normal(0, scale))

        a1 = FormValue(m, {(1,): cnum(), (2,): cnum()})
        a2 = FormValue(m, {(1,): cnum(), (2,): cnum()})
        b = FormValue(m, {(): cnum(0.5), (1, 2): cnum()})
        element = (
            wedge(a1, generator_form(m, 2, (1,)))
            + wedge(a2, generator_form(m, 2, (2,)))
            + wedge(b, generator_form(m, 2, (1, 2)))
        )
        closed = spinor_rep(clifford_exp_dim2(a1, a2, b), rep)
        direct = graded_exp(spinor_rep(element, rep))
        from chernforms.superlinalg import graded_norm

        assert graded_norm(closed - direct) < RELATION_TOL


def test_evaluate_entire_matches_numpy_on_scalars():
    for _ in range(10):
        z = complex(RNG.normal(0, 1.0), RNG.normal(0, 0.5))
        fv = FormValue.scalar(z, 2)
        assert abs(evaluate_entire("cos", fv).value(()) - np.cos(z)) < 1e-12
        assert abs(evaluate_entire("sin", fv).value(()) - np.sin(z)) < 1e-12
        assert abs(evaluate_entire("sinc", fv).value(()) - np.sin(z) / z) < 1e-12
        want = (np.sin(z) - z * np.cos(z)) / z**2
        assert abs(evaluate_entire("sincdiff", fv).value(()) - want) < 1e-12
