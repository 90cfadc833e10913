"""Clifford and wedge elements, Berezin integral, spinor representation."""

from __future__ import annotations

from itertools import combinations, permutations

import numpy as np
import pytest

from chernforms.clifford_berezin import (
    CLIFFORD,
    WEDGE,
    GradedElement,
    algebra_mul,
    berezin_T,
    clifford_exp_dim2,
    contraction,
    default_spinor_rep,
    evaluate_entire,
    pfaffian,
    spinor_rep,
    symbol_inverse,
    symbol_map,
    tau_map,
    wedge_exp,
)
from chernforms.exterior import FormValue, wedge
from chernforms.superlinalg import graded_exp, supertrace

ASSOC_TOL = 1e-10
RELATION_TOL = 1e-9

RNG = np.random.default_rng(11)


def _rand_element(algebra: str, dim_v: int, m: int, numeric=True) -> GradedElement:
    terms = {}
    for k in range(dim_v + 1):
        for subset in combinations(range(1, dim_v + 1), k):
            if RNG.random() < 0.45:
                continue
            coeff = complex(RNG.normal(), RNG.normal())
            if numeric:
                terms[subset] = FormValue(m, {(): coeff})
            else:
                deg = int(RNG.integers(0, m + 1))
                index = tuple(sorted(RNG.choice(range(1, m + 1), deg, replace=False)))
                terms[subset] = FormValue(m, {index: coeff})
    return GradedElement(algebra, dim_v, m, terms)


def test_clifford_relations():
    """c_i c_j + c_j c_i = -2 delta_ij."""
    dim_v, m = 4, 2
    one = FormValue.scalar(1.0, m)
    for i in range(1, dim_v + 1):
        for j in range(1, dim_v + 1):
            ci = GradedElement(CLIFFORD, dim_v, m, {(i,): one})
            cj = GradedElement(CLIFFORD, dim_v, m, {(j,): one})
            anti = algebra_mul(ci, cj) + algebra_mul(cj, ci)
            if i == j:
                assert (anti.coefficient(()) + one * 2.0).max_abs() < 1e-14
            else:
                assert anti.max_abs() < 1e-14


def test_algebra_mul_associativity():
    for algebra in (WEDGE, CLIFFORD):
        for _ in range(15):
            a = _rand_element(algebra, 3, 2, numeric=False)
            b = _rand_element(algebra, 3, 2, numeric=False)
            c = _rand_element(algebra, 3, 2, numeric=False)
            left = algebra_mul(algebra_mul(a, b), c)
            right = algebra_mul(a, algebra_mul(b, c))
            assert (left - right).max_abs() < ASSOC_TOL


def test_symbol_roundtrip():
    a = _rand_element(CLIFFORD, 3, 2, numeric=False)
    back = symbol_inverse(symbol_map(a))
    assert (back - a).max_abs() == 0.0


def test_berezin_kills_contractions():
    """T(iota_x a) = 0: the contraction lands below top generator degree."""
    for _ in range(15):
        a = _rand_element(WEDGE, 4, 2, numeric=True)
        xs = RNG.normal(0, 1, 4)
        out = berezin_T(contraction(a, list(xs)))
        assert out.max_abs() == 0.0


def test_contraction_is_odd_derivation():
    dim_v, m = 4, 2
    xs = list(RNG.normal(0, 1, dim_v))
    for k in range(dim_v + 1):
        subsets = list(combinations(range(1, dim_v + 1), k))
        subset = subsets[int(RNG.integers(len(subsets)))]
        a = GradedElement(
            WEDGE, dim_v, m, {subset: FormValue.scalar(complex(RNG.normal()), m)}
        )
        b = _rand_element(WEDGE, dim_v, m, numeric=True)
        lhs = contraction(algebra_mul(a, b), xs)
        sign = (-1.0) ** k
        rhs = algebra_mul(contraction(a, xs), b) + algebra_mul(a, contraction(b, xs)) * sign
        assert (lhs - rhs).max_abs() < 1e-12


def test_pfaffian_against_matching_sum():
    """Brute-force perfect-matching oracle for the 4x4 Pfaffian."""
    dim_v, m = 4, 2
    for _ in range(10):
        a = RNG.normal(0, 1, (dim_v, dim_v))
        a = a - a.T
        terms = {}
        mat = np.zeros((dim_v, dim_v))
        for i, j in combinations(range(1, dim_v + 1), 2):
            coeff = a[i - 1, j - 1]
            terms[(i, j)] = FormValue.scalar(coeff, m)
            mat[i - 1, j - 1] = coeff
            mat[j - 1, i - 1] = -coeff
        got = pfaffian(GradedElement(WEDGE, dim_v, m, terms)).value(())
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


def test_tau_map_normalization():
    m = 2
    c12 = GradedElement(CLIFFORD, 2, m, {(1, 2): FormValue.scalar(1.0, m)})
    tau = tau_map(c12)
    assert np.allclose(tau, [[0.0, -2.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        tau_map(GradedElement(CLIFFORD, 2, m, {(1,): FormValue.scalar(1.0, m)}))


def test_wedge_exp_top_term():
    m = 2
    b1, b2 = RNG.normal(), RNG.normal()
    l2 = GradedElement(
        WEDGE,
        4,
        m,
        {(1, 2): FormValue.scalar(b1, m), (3, 4): FormValue.scalar(b2, m)},
    )
    top = berezin_T(wedge_exp(l2)).value(())
    assert abs(top - b1 * b2) < 1e-14


def test_supertrace_relation_dim2():
    """Str of the spinor exponential against the Berezin route.

    For a = b c_1 c_2 the spinor supertrace of exp(a) factors through the
    half-determinant j(tau(a))^{1/2} = sin(b)/b times the Berezin integral
    of the wedge exponential; both sides reduce to -2i sin(b).
    """
    m = 2
    rep = default_spinor_rep()
    zero = FormValue.zero(m)
    for _ in range(20):
        b = complex(RNG.normal(0, 0.8), RNG.normal(0, 0.3))
        bfv = FormValue.scalar(b, m)
        element = GradedElement(CLIFFORD, 2, m, {(1, 2): bfv})
        lhs = supertrace(graded_exp(spinor_rep(element, rep))).value(())

        phi = tau_map(element)[1, 0]
        half_det = np.sin(phi / 2.0) / (phi / 2.0)
        berezin = berezin_T(wedge_exp(symbol_map(element))).value(())
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
        element = GradedElement(CLIFFORD, 2, m, {(1, 2): bfv})
        lhs = supertrace(graded_exp(spinor_rep(element, rep)))

        # sin(b)/b of the full (scalar + nilpotent) coefficient
        half_det = evaluate_entire("sinc", bfv)
        berezin = berezin_T(wedge_exp(symbol_map(element)))
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
        element = GradedElement(CLIFFORD, 2, m, {(1,): a1, (2,): a2, (1, 2): b})
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
