"""Quadrature helpers: Chebyshev cumulative integration."""

from __future__ import annotations

from math import erf, pi, sqrt

import numpy as np

from chernforms.quadrature import chebyshev_cumulative, chebyshev_nodes


def test_chebyshev_cumulative_integrates_monomials_exactly():
    """Q x^k = (x^{k+1} - a^{k+1}) / (k + 1) at every node, for every k <= order."""
    order, a, b = 72, 0.5, 3.0
    cum = chebyshev_cumulative(order, a, b)
    x = chebyshev_nodes(order, a, b)
    assert cum.shape == (order + 1, order + 1)
    for k in range(order + 1):
        want = (x ** (k + 1) - a ** (k + 1)) / (k + 1)
        assert np.abs(cum @ x**k - want).max() <= 1e-13 * np.abs(want).max()


def test_chebyshev_cumulative_last_row_is_a_quadrature_rule():
    """int_{0.5}^{3} e^{-4x^2} dx = sqrt(pi)/4 (erf 6 - erf 1)."""
    order, a, b = 72, 0.5, 3.0
    weights = chebyshev_cumulative(order, a, b)[-1]
    x = chebyshev_nodes(order, a, b)
    want = sqrt(pi) / 4.0 * (erf(2.0 * b) - erf(2.0 * a))
    assert abs(weights @ np.exp(-4.0 * x * x) - want) < 1e-13
