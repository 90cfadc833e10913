"""Graded matrix forms: star products, supertraces, exponentials, bounds."""

from __future__ import annotations

import numpy as np
import pytest

from chernforms.superlinalg import (
    HermitianEndo,
    ParitySplit,
    SuperMatrixForm,
    _left_mult,
    _left_mult_blocks,
    _left_mult_gather,
    _subset_index,
    d_bracket,
    graded_exp,
    graded_norm,
    identity_form,
    jet_matmul,
    jet_slots,
    lincomb,
    smallest_eigenvalue,
    star_product,
    supertrace,
    volterra_exp,
)

STR_COMM_TOL = 1e-10
EXP_INV_TOL = 1e-9
ASSOC_TOL = 1e-11

RNG = np.random.default_rng(7)


def _rand_components(split, m, degrees, order=0, scale=0.7, batch=(), rng=RNG):
    n = split.dim
    shape = batch + (jet_slots(order, m), n, n)
    from itertools import combinations

    comps = {}
    for k in degrees:
        for index in combinations(range(1, m + 1), k):
            if rng.random() < 0.4:
                continue
            comps[index] = scale * (rng.normal(0, 1, shape) + 1j * rng.normal(0, 1, shape))
    return comps


def _rand_matrix_form(split, m, order=0, with_scalar=True, batch=(), rng=RNG):
    degrees = range(0 if with_scalar else 1, m + 1)
    comps = _rand_components(split, m, degrees, order=order, batch=batch, rng=rng)
    if not comps:
        shape = batch + (jet_slots(order, m), split.dim, split.dim)
        comps = {(1,): 0.5 * rng.normal(0, 1, shape).astype(complex)}
    return SuperMatrixForm(split, m, comps)


def _slot_norm(mat):
    """Sum over components of the largest operator norm over batch and jet slots."""
    return sum(
        float(np.linalg.norm(c, ord=2, axis=(-2, -1)).max())
        for c in mat.components.values()
    )


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


@pytest.mark.parametrize("batch", [(), (3,)], ids=["nobatch", "batch3"])
@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_graded_exp_series_oracle(m, order, batch):
    """exp by star-product power series, on a nilpotent-heavy instance.

    Every jet slot and batch element is compared, at the chart dimensions,
    jet orders and t-batches that the character forms use.
    """
    split = ParitySplit(2, 1)
    rng = np.random.default_rng([m, order, len(batch)])
    a = _rand_matrix_form(split, m, order=order, batch=batch, rng=rng)
    series = identity_form(split, m, order)
    term = identity_form(split, m, order)
    for k in range(1, 24):
        term = star_product(term, a) * (1.0 / k)
        series = series + term
    assert _slot_norm(graded_exp(a) - series) < 1e-9


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


@pytest.mark.parametrize("order", [0, 1, 2])
def test_jet_matmul_product_rule(order):
    """Value, gradient and Hessian slots of a batched (N x N) @ (N x n) product."""
    m = 2
    slots = jet_slots(order, m)
    a = RNG.normal(0, 1, (3, slots, 4, 4)) + 1j * RNG.normal(0, 1, (3, slots, 4, 4))
    b = RNG.normal(0, 1, (3, slots, 4, 2)) + 1j * RNG.normal(0, 1, (3, slots, 4, 2))
    c = jet_matmul(a, b, m)
    assert c.shape == (3, slots, 4, 2)
    assert np.allclose(c[:, 0], a[:, 0] @ b[:, 0])
    if order == 0:
        return
    for k in range(1, m + 1):
        assert np.allclose(c[:, k], a[:, k] @ b[:, 0] + a[:, 0] @ b[:, k])
    if order == 1:
        return
    for k in range(m):
        for l in range(m):
            s = 1 + m + k * m + l
            want = a[:, 0] @ b[:, s] + a[:, s] @ b[:, 0]
            want = want + a[:, 1 + k] @ b[:, 1 + l] + a[:, 1 + l] @ b[:, 1 + k]
            assert np.allclose(c[:, s], want)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_left_mult_gather_matches_blockwise_embedding(m, n):
    """The gathered left-multiplication matrix, against block-by-block placement."""
    two_m = 1 << m
    rng = np.random.default_rng([m, n])
    shape = (2, 3, two_m * n, n)
    col = rng.normal(0, 1, shape) + 1j * rng.normal(0, 1, shape)
    blocks = col.reshape(2, 3, two_m, n, n)
    subs, index = _subset_index(m)
    want = np.zeros((2, 3, two_m, n, two_m, n), dtype=complex)
    for i in subs:
        for row, column, sign in _left_mult_blocks(m)[i]:
            want[..., row, :, column, :] += sign * blocks[..., index[i], :, :]
    got = _left_mult(col, _left_mult_gather(m, n))
    assert np.array_equal(got, want.reshape(2, 3, two_m * n, two_m * n))


def _order_one_and_value_only():
    split = ParitySplit(1, 1)
    value = np.ones((1, 2, 2), dtype=complex)
    with_grad = np.ones((jet_slots(1, 2), 2, 2), dtype=complex)
    return split, value, with_grad


def _mixed_components():
    split, value, with_grad = _order_one_and_value_only()
    return SuperMatrixForm(split, 2, {(): with_grad, (1,): value})


def _slots_not_a_jet_layout():
    split, value, _ = _order_one_and_value_only()
    return SuperMatrixForm(split, 2, {(): np.concatenate([value, value])})


def _lincomb_of_mixed_orders():
    split, value, with_grad = _order_one_and_value_only()
    a = SuperMatrixForm(split, 2, {(): with_grad})
    b = SuperMatrixForm(split, 2, {(): value})
    return lincomb([(1.0, a), (1.0, b)])


@pytest.mark.parametrize(
    "build", [_mixed_components, _slots_not_a_jet_layout, _lincomb_of_mixed_orders]
)
def test_mixed_jet_orders_are_rejected(build):
    """A value-only slot stack next to jets used to broadcast into the gradients."""
    with pytest.raises(ValueError, match="slot"):
        build()


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
