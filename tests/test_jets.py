"""Jet arithmetic: differences against the sum-of-negation route, bit for bit."""

from __future__ import annotations

import numpy as np
import pytest

from chernforms.jets import Jet


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
