"""Quadrature helpers: Chebyshev cumulative integration, the exact half-line
Gaussian rule and the tail cutoff."""

from __future__ import annotations

from math import erf, gamma, pi, sqrt

import numpy as np
import pytest

from chernforms.quadrature import (
    chebyshev_cumulative,
    chebyshev_nodes,
    half_gaussian_rule,
    tail_cutoff,
)


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


@pytest.mark.parametrize("h", [float("nan"), 0.0, -1.0])
def test_tail_cutoff_rejects_no_decay(h):
    """A NaN rate used to fall through to the 4.0 floor."""
    with pytest.raises(ValueError, match="no Gaussian decay"):
        tail_cutoff(h, 0.0)


@pytest.mark.parametrize("h", [1e-2, 1.0, 50.0])
@pytest.mark.parametrize("degree", range(7))
def test_half_gaussian_rule_integrates_every_monomial(degree, h):
    """int_0^inf t^k e^{-h t^2} dt = Gamma((k+1)/2) h^{-(k+1)/2} / 2 for k <= degree."""
    t, w = half_gaussian_rule(degree, h)
    assert np.isfinite(t).all() and np.isfinite(w).all()
    assert len(t) == degree // 2 + 1 + 2 * ((degree - 1) // 4 + 1)
    for k in range(degree + 1):
        want = 0.5 * gamma((k + 1) / 2) * h ** (-(k + 1) / 2)
        assert abs(w @ (t**k * np.exp(-h * t * t)) - want) <= 1e-13 * want


@pytest.mark.parametrize("h", [float("nan"), float("inf"), 0.0, -1.0])
def test_half_gaussian_rule_rejects_no_decay(h):
    with pytest.raises(ValueError, match="no Gaussian decay"):
        half_gaussian_rule(2, h)


@pytest.mark.parametrize("degree", [-1, 2.0])
def test_half_gaussian_rule_rejects_a_bad_degree(degree):
    with pytest.raises(ValueError, match="non-negative integer"):
        half_gaussian_rule(degree, 1.0)
