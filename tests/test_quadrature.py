"""Quadrature helpers: the exact Gaussian tail rule and the tail cutoff."""

from __future__ import annotations

from math import exp, factorial

import numpy as np
import pytest

from chernforms.quadrature import odd_gaussian_rule, tail_cutoff

RULE_DEGREES = range(14)
RULE_RATES = [1e-2, 1.0, 50.0]
RULE_LOWER_LIMITS = [0.0, 0.7, 2.5]


@pytest.mark.parametrize("h", [float("nan"), 0.0, -1.0])
def test_tail_cutoff_rejects_no_decay(h):
    """A NaN rate used to fall through to the 4.0 floor."""
    with pytest.raises(ValueError, match="no Gaussian decay"):
        tail_cutoff(h, 0.0)


def _odd_moment_tail(k: int, h: float, a: float) -> float:
    """int_a^inf t^{2k+1} e^{-h t^2} dt = k! e^{-h a^2} sum_{j<=k} (h a^2)^j / j! / (2 h^{k+1})."""
    x = h * a * a
    series = sum(x**j / factorial(j) for j in range(k + 1))
    return factorial(k) * exp(-x) * series / (2.0 * h ** (k + 1))


@pytest.mark.parametrize("h", RULE_RATES)
@pytest.mark.parametrize("degree", RULE_DEGREES)
def test_odd_gaussian_rule_integrates_every_odd_monomial(degree, h):
    """Every t^{2k+1} with 2k + 1 <= degree, from each lower limit, to relative 1e-13.

    An odd polynomial of degree 0 is zero, so that rule has no node."""
    for a in RULE_LOWER_LIMITS:
        s, w = odd_gaussian_rule(degree, h, a)
        assert s.shape == w.shape == ((degree - 1) // 4 + 1,)
        assert np.isfinite(s).all() and np.isfinite(w).all()
        assert (s >= a).all()
        for k in range((degree - 1) // 2 + 1):
            want = _odd_moment_tail(k, h, a)
            got = w @ (s ** (2 * k + 1) * np.exp(-h * s * s))
            assert abs(got - want) <= 1e-13 * want, (a, k)


def test_odd_gaussian_rule_broadcasts_its_lower_limit():
    """An array of lower limits gives one row of nodes per limit, equal to the scalar rule."""
    limits = np.array([[0.0, 0.7], [2.5, -0.7]])
    s, w = odd_gaussian_rule(9, 1.0, limits)
    assert s.shape == w.shape == (2, 2, 3)
    for idx in np.ndindex(limits.shape):
        s1, w1 = odd_gaussian_rule(9, 1.0, float(limits[idx]))
        assert np.array_equal(s[idx], s1) and np.array_equal(w[idx], w1)


@pytest.mark.parametrize("h", [float("nan"), float("inf"), 0.0, -1.0])
def test_odd_gaussian_rule_rejects_no_decay(h):
    with pytest.raises(ValueError, match="no Gaussian decay"):
        odd_gaussian_rule(2, h)


@pytest.mark.parametrize("degree", [-1, 2.0])
def test_odd_gaussian_rule_rejects_a_bad_degree(degree):
    with pytest.raises(ValueError, match="non-negative integer"):
        odd_gaussian_rule(degree, 1.0)


@pytest.mark.parametrize("t_from", [float("nan"), float("inf"), [0.5, float("nan")]])
def test_odd_gaussian_rule_rejects_a_non_finite_lower_limit(t_from):
    with pytest.raises(ValueError, match="must be finite"):
        odd_gaussian_rule(3, 1.0, t_from)
