"""Graded matrix forms: star products, supertraces, exponentials, bounds."""

from __future__ import annotations

import numpy as np

from chernforms.superlinalg import (
    HermitianEndo,
    ParitySplit,
    SuperMatrixForm,
    d_bracket,
    graded_exp,
    graded_norm,
    identity_form,
    jet_matmul,
    jet_slots,
    smallest_eigenvalue,
    star_product,
    supertrace,
    volterra_exp,
)

STR_COMM_TOL = 1e-10
EXP_INV_TOL = 1e-9
ASSOC_TOL = 1e-11

RNG = np.random.default_rng(7)


def _rand_components(split, m, degrees, order=0, scale=0.7):
    n = split.dim
    slots = jet_slots(order, m)
    from itertools import combinations

    comps = {}
    for k in degrees:
        for index in combinations(range(1, m + 1), k):
            if RNG.random() < 0.4:
                continue
            comps[index] = scale * (
                RNG.normal(0, 1, (slots, n, n)) + 1j * RNG.normal(0, 1, (slots, n, n))
            )
    return comps


def _rand_matrix_form(split, m, order=0, with_scalar=True):
    degrees = range(0 if with_scalar else 1, m + 1)
    comps = _rand_components(split, m, degrees, order=order)
    if not comps:
        comps = {(1,): 0.5 * RNG.normal(0, 1, (jet_slots(order, m), split.dim, split.dim)).astype(complex)}
    return SuperMatrixForm(split, m, comps)


def _homogeneous(split, m, index, block):
    """One multi-index component supported on a pure parity block.

    ``block`` 0 keeps the diagonal blocks (even), 1 the off-diagonal ones.
    """
    n = split.dim
    g = split.grading()
    mask = (g[:, None] * g[None, :] < 0) if block else (g[:, None] * g[None, :] > 0)
    mat = RNG.normal(0, 1, (1, n, n)) + 1j * RNG.normal(0, 1, (1, n, n))
    mat = mat * mask[None, :, :]
    return SuperMatrixForm(split, m, {index: mat})


def test_star_product_identity_and_associativity():
    split = ParitySplit(2, 1)
    m = 3
    ident = identity_form(split, m)
    for _ in range(10):
        a = _rand_matrix_form(split, m)
        b = _rand_matrix_form(split, m)
        c = _rand_matrix_form(split, m)
        assert graded_norm(star_product(ident, a) - a) < 1e-13
        assert graded_norm(star_product(a, ident) - a) < 1e-13
        left = star_product(star_product(a, b), c)
        right = star_product(a, star_product(b, c))
        assert graded_norm(left - right) < ASSOC_TOL * max(1.0, graded_norm(left))


def test_supertrace_vanishes_on_supercommutators():
    split = ParitySplit(2, 2)
    m = 3
    from itertools import combinations

    all_indices = [()] + [
        i for k in range(1, m + 1) for i in combinations(range(1, m + 1), k)
    ]
    for _ in range(40):
        ia = all_indices[int(RNG.integers(len(all_indices)))]
        ib = all_indices[int(RNG.integers(len(all_indices)))]
        pa = int(RNG.integers(2))
        pb = int(RNG.integers(2))
        a = _homogeneous(split, m, ia, pa)
        b = _homogeneous(split, m, ib, pb)
        sign = (-1.0) ** ((len(ia) + pa) * (len(ib) + pb))
        comm = star_product(a, b) - star_product(b, a) * sign
        assert supertrace(comm).max_abs() < STR_COMM_TOL


def test_graded_exp_inverse():
    split = ParitySplit(1, 2)
    m = 3
    ident = identity_form(split, m)
    for _ in range(10):
        a = _rand_matrix_form(split, m)
        prod = star_product(graded_exp(a), graded_exp(a * (-1.0)))
        assert graded_norm(prod - ident) < EXP_INV_TOL


def test_graded_exp_series_oracle():
    """exp by star-product power series, on a nilpotent-heavy instance."""
    split = ParitySplit(2, 1)
    m = 2
    a = _rand_matrix_form(split, m, with_scalar=True)
    series = identity_form(split, m)
    term = identity_form(split, m)
    for k in range(1, 24):
        term = star_product(term, a) * (1.0 / k)
        series = series + term
    assert graded_norm(graded_exp(a) - series) < 1e-9


def test_d_bracket_squares_to_zero_and_commutes_with_str():
    split = ParitySplit(2, 1)
    m = 2
    from chernforms.exterior import differentiate_value
    from chernforms.jets import jet_coordinates

    # components whose slot stacks encode an exact jet of sin/cos entries
    def jet_comp(point, fn):
        jets = jet_coordinates(point, order=2)
        val = fn(jets[0], jets[1])
        n = split.dim
        slots = jet_slots(2, m)
        arr = np.zeros((slots, n, n), complex)
        base = RNG.normal(0, 1, (n, n)) + 1j * RNG.normal(0, 1, (n, n))
        arr[0] = val.value * base
        arr[1] = val.grad[0] * base
        arr[2] = val.grad[1] * base
        arr[3:] = val.hess.reshape(-1)[:, None, None] * base[None]
        return arr

    point = [0.3, -0.7]
    comps = {
        (1,): jet_comp(point, lambda x, y: (x * y).sin()),
        (2,): jet_comp(point, lambda x, y: (x + y * y).cos()),
        (1, 2): jet_comp(point, lambda x, y: (x * x + y).exp() * 0.2),
    }
    mat = SuperMatrixForm(split, m, comps)
    dd = d_bracket(d_bracket(mat))
    assert graded_norm(dd) < 1e-10

    str_d = supertrace(d_bracket(mat))
    d_str = differentiate_value(supertrace(mat))
    assert (str_d - d_str).max_abs() < 1e-10


def test_jet_matmul_product_rule():
    m = 2
    slots = jet_slots(1, m)
    a = RNG.normal(0, 1, (slots, 2, 2)).astype(complex)
    b = RNG.normal(0, 1, (slots, 2, 2)).astype(complex)
    c = jet_matmul(a, b, m)
    assert np.allclose(c[0], a[0] @ b[0])
    assert np.allclose(c[1], a[1] @ b[0] + a[0] @ b[1])


def test_smallest_eigenvalue_matches_eigvalsh():
    for _ in range(20):
        n = int(RNG.integers(1, 6))
        g = RNG.normal(0, 1, (n, n)) + 1j * RNG.normal(0, 1, (n, n))
        h = g + g.conj().T
        want = float(np.linalg.eigvalsh(h)[0])
        assert abs(smallest_eigenvalue(h) - want) < 1e-12
        assert abs(smallest_eigenvalue(HermitianEndo(h)) - want) < 1e-12


def test_volterra_exp_matches_graded_exp():
    for _ in range(15):
        m = int(RNG.integers(1, 4))
        p = int(RNG.integers(1, 3))
        q = int(RNG.integers(1, 3))
        split = ParitySplit(p, q)
        n = p + q
        g = RNG.normal(0, 1, (n, n)) + 1j * RNG.normal(0, 1, (n, n))
        h = 0.5 * (g + g.conj().T)
        r = SuperMatrixForm(split, m, _rand_components(split, m, range(1, m + 1)))
        full = SuperMatrixForm(
            split, m, {(): h[None], **{i: c for i, c in r.components.items()}}
        )
        diff = graded_norm(volterra_exp(HermitianEndo(h), r) - graded_exp(full))
        assert diff < 1e-8


def test_volterra_exp_rejects_scalar_remainder():
    split = ParitySplit(1, 1)
    h = np.eye(2, dtype=complex)
    r = SuperMatrixForm(split, 2, {(): np.eye(2, dtype=complex)[None]})
    import pytest

    with pytest.raises(ValueError):
        volterra_exp(HermitianEndo(h), r)


def test_norm_bound_sample():
    """The decay bound that the appendix scenario checks in bulk."""
    from math import factorial

    split = ParitySplit(2, 1)
    m = 2
    for _ in range(25):
        g = RNG.normal(0, 1, (3, 3)) + 1j * RNG.normal(0, 1, (3, 3))
        h = 0.5 * (g + g.conj().T)
        r = SuperMatrixForm(split, m, _rand_components(split, m, range(1, m + 1)))
        full = SuperMatrixForm(
            split, m, {(): -h[None], **{i: -c for i, c in r.components.items()}}
        )
        t = graded_norm(r)
        poly = sum(t**k / factorial(k) for k in range(m + 1))
        bound = float(np.exp(-smallest_eigenvalue(h))) * poly
        assert graded_norm(graded_exp(full)) <= bound * (1.0 + 1e-9)


def test_supertrace_of_identity_counts_signature():
    split = ParitySplit(3, 1)
    tr = supertrace(identity_form(split, 2))
    assert tr.value(()) == 2.0


def test_volterra_exp_with_central_hermitian_part():
    """H = c I has one repeated eigenvalue; the simplex series still matches."""
    split = ParitySplit(2, 1)
    for c in (-1.3, 0.0, 0.7):
        for m in (1, 2, 3):
            h = c * np.eye(split.dim, dtype=complex)
            r = SuperMatrixForm(split, m, _rand_components(split, m, range(1, m + 1)))
            full = SuperMatrixForm(split, m, {(): h[None], **r.components})
            diff = graded_norm(volterra_exp(HermitianEndo(h), r) - graded_exp(full))
            assert diff < 1e-8
