"""Jet arithmetic: differences against the sum-of-negation route, and rows
against single points, bit for bit."""

from __future__ import annotations

import numpy as np
import pytest

from chernforms.exterior import ChartPoint, smooth_cutoff
from chernforms.jets import Jet, coeff_mul, smooth_step
from helpers import node_bits


def _bits(x) -> tuple:
    """Every bit of a jet or a number, signed zeros included."""
    if not isinstance(x, Jet):
        return (np.complex128(x).tobytes(),)
    hess = None if x.hess is None else x.hess.tobytes()
    return (np.complex128(x.value).tobytes(), x.grad.tobytes(), hess)


def _jet(rng, order: int, zeros: bool = False) -> Jet:
    def draw(shape):
        out = np.empty(shape, dtype=complex)
        if zeros:
            out.real = rng.choice([0.0, -0.0], size=shape)
            out.imag = rng.choice([0.0, -0.0], size=shape)
        else:
            out.real = rng.normal(size=shape)
            out.imag = rng.normal(size=shape)
        return out

    value = complex(draw(()))
    return Jet(value, draw(3), draw((3, 3)) if order == 2 else None)


@pytest.mark.parametrize("zeros", [False, True])
@pytest.mark.parametrize("orders", [(1, 1), (2, 2), (1, 2), (2, 1)])
def test_jet_minus_jet_is_the_sum_with_the_negation(orders, zeros):
    rng = np.random.default_rng(3)
    for _ in range(8):
        a, b = _jet(rng, orders[0], zeros), _jet(rng, orders[1], zeros)
        assert _bits(a - b) == _bits(a + (-b))


@pytest.mark.parametrize("number", [0.7, -2.0, 1.5 - 0.25j, 0.0, -0.0, complex(-0.0, -0.0), 3])
@pytest.mark.parametrize("zeros", [False, True])
@pytest.mark.parametrize("order", [1, 2])
def test_number_differences_are_the_sum_with_the_negation(number, order, zeros):
    rng = np.random.default_rng(4)
    for _ in range(4):
        a = _jet(rng, order, zeros)
        assert _bits(a - number) == _bits(a + (-complex(number)))
        assert _bits(number - a) == _bits((-a) + number)


def _row_jet(rng, k: int) -> Jet:
    def draw(shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    return Jet(draw(k), draw((k, 3)), draw((k, 3, 3)))


def _node(x, j: int):
    """Node j of a row jet or node array; anything else is shared by the nodes."""
    if isinstance(x, Jet):
        if not isinstance(x.value, np.ndarray):
            return x
        return Jet(x.value[j], x.grad[j], None if x.hess is None else x.hess[j])
    return complex(x[j]) if isinstance(x, np.ndarray) else x


ROW_OPS = {
    "jet + jet": lambda a, b, c, s: a + b,
    "jet - jet": lambda a, b, c, s: a - b,
    "jet * jet": lambda a, b, c, s: a * b,
    "jet / jet": lambda a, b, c, s: a / b,
    "1 / jet": lambda a, b, c, s: 1.0 / a,
    "jet ** 3": lambda a, b, c, s: a**3,
    "jet * node": lambda a, b, c, s: a * c,
    "node * jet": lambda a, b, c, s: c * a,
    "node - jet": lambda a, b, c, s: c - a,
    "node * node": lambda a, b, c, s: coeff_mul(c, c * 0.5),
    "jet * shared": lambda a, b, c, s: a * s,
    "shared * jet": lambda a, b, c, s: s * a,
    "shared - jet": lambda a, b, c, s: s - a,
    "shared * node": lambda a, b, c, s: s * c,
    "jet * number": lambda a, b, c, s: a * (0.3 - 1.7j),
    "1 - jet": lambda a, b, c, s: 1.0 - a,
    "exp": lambda a, b, c, s: a.exp(),
    "sin": lambda a, b, c, s: a.sin(),
    "cos": lambda a, b, c, s: a.cos(),
    "sqrt": lambda a, b, c, s: a.sqrt(),
}


@pytest.mark.parametrize("name", sorted(ROW_OPS))
def test_row_jets_give_the_bits_of_single_points(name):
    """Python's complex products and quotients differ from numpy's loops in the
    last bit; on a row they are repeated part by part, so each node matches."""
    op = ROW_OPS[name]
    rng = np.random.default_rng(11)
    k = 24
    a, b = _row_jet(rng, k), _row_jet(rng, k)
    c = rng.normal(size=k) + 1j * rng.normal(size=k)
    s = _jet(rng, 2)
    row = op(a, b, c, s)
    for j in range(k):
        assert node_bits(row, j) == node_bits(op(_node(a, j), _node(b, j), _node(c, j), s)), j


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_smooth_step_rejects_a_non_finite_value(bad):
    """A NaN step used to come back as NaN and turn an integral into NaN silently."""
    with pytest.raises(ValueError, match="non-finite"):
        smooth_step(bad)
    with pytest.raises(ValueError, match="non-finite"):
        smooth_step(Jet(bad, np.zeros(2)))
    with pytest.raises(ValueError, match="non-finite .* at node 2"):
        smooth_step(np.array([0.2, 0.5, bad, 0.7]))
    with pytest.raises(ValueError, match="non-finite .* at node 1"):
        smooth_step(Jet(np.array([0.2, bad, 0.5]), np.zeros(2)))


def test_a_nan_cutoff_fails_loud():
    chi = smooth_cutoff(2, 0.36, 4.41)
    with pytest.raises(ValueError, match="non-finite"):
        chi(ChartPoint([np.nan, 0.3]))
    with pytest.raises(ValueError, match="non-finite .* at node 1"):
        chi(ChartPoint([[0.5, 0.3], [np.nan, 0.3], [1.0, 1.0]]))


def test_row_smooth_step_of_floats_is_pointwise():
    u = np.array([-0.5, 0.0, 1e-3, 0.3, 0.5, 0.97, 1.0, 2.0])
    row = smooth_step(u)
    assert [x.hex() for x in row.tolist()] == [float(smooth_step(float(x))).hex() for x in u]
