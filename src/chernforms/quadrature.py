"""Quadrature helpers shared across the package.

Thin caching wrappers around numpy's Gauss-Legendre / Gauss-Hermite node
generators; the half-line rule that integrates e^{-h t^2} times a polynomial
of bounded degree exactly (Gauss-Hermite for the even part, Gauss-Laguerre in
u = t^2 for the odd part; Golub and Welsch, Math. Comp. 23, 1969), its unit
nodes cached per degree; the tail cutoff of Gaussian-decaying t-integrals; and
Chebyshev cumulative integration: the matrix taking values at Chebyshev nodes
to the running integrals at the same nodes (its last row is the Clenshaw-Curtis
rule).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "gauss_legendre",
    "gauss_hermite",
    "half_gaussian_rule",
    "tail_cutoff",
    "chebyshev_nodes",
    "chebyshev_cumulative",
]

TAIL_FLOOR = 4.0
TAIL_SCALE = 8.0


@lru_cache(maxsize=64)
def _leggauss(order: int):
    return np.polynomial.legendre.leggauss(order)


@lru_cache(maxsize=16)
def gauss_hermite(order: int):
    """Gauss-Hermite nodes and weights (weight e^{-x^2} on the line)."""
    return np.polynomial.hermite.hermgauss(order)


def gauss_legendre(order: int, a: float, b: float):
    """Gauss-Legendre nodes and weights mapped to [a, b]."""
    x, w = _leggauss(order)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


@lru_cache(maxsize=32)
def _half_gaussian_unit(degree: int):
    """``half_gaussian_rule(degree, 1.0)``: Hermite nodes, then Laguerre pairs."""
    x, w = gauss_hermite(degree // 2 + 1)
    nodes, weights = [x], [0.5 * w * np.exp(x * x)]
    n_odd = (degree - 1) // 4 + 1
    if n_odd:
        y, om = np.polynomial.laguerre.laggauss(n_odd)
        s = np.sqrt(y)
        wl = om * np.exp(y) / (4.0 * s)
        nodes += [s, -s]
        weights += [wl, -wl]
    return np.concatenate(nodes), np.concatenate(weights)


def half_gaussian_rule(degree: int, h: float):
    """Nodes t and weights w with sum_k w_k f(t_k) = int_0^inf f(t) dt exactly
    for f(t) = e^{-h t^2} q(t), q any polynomial of degree <= ``degree``.

    The weights carry the factor e^{h t^2}, so the rule is applied to f
    itself. Even part of q: Gauss-Hermite nodes x/sqrt(h), weights
    w e^{x^2} / (2 sqrt(h)), floor(degree/2) + 1 of them. Odd part, by u = t^2:
    Gauss-Laguerre at t = +-sqrt(y/h), weights +-om e^y / (4 h sqrt(y/h)),
    floor((degree-1)/4) + 1 pairs. Each family cancels the other's part of q
    by symmetry.
    """
    if not isinstance(degree, int) or degree < 0:
        raise ValueError(f"polynomial degree must be a non-negative integer; got {degree!r}")
    if not 0.0 < h < np.inf:
        raise ValueError(f"no Gaussian decay here (no spectral gap): h = {h!r}")
    t, w = _half_gaussian_unit(degree)
    scale = 1.0 / np.sqrt(h)
    return t * scale, w * scale


def tail_cutoff(h: float, t_lo: float) -> float:
    """Upper end T0 of a t-integral on [t_lo, inf) decaying like e^{-h t^2}.

    T0 = max(TAIL_FLOOR, TAIL_SCALE / sqrt(h), t_lo + 1), so h T0^2 >= TAIL_SCALE^2
    and the dropped tail is O(e^{-TAIL_SCALE^2}) of the local scale.
    """
    if not h > 0.0:
        raise ValueError(f"no Gaussian decay here (no spectral gap): h = {h!r}")
    return max(TAIL_FLOOR, TAIL_SCALE / np.sqrt(h), t_lo + 1.0)


def chebyshev_nodes(order: int, a: float, b: float) -> np.ndarray:
    """Chebyshev points of the second kind on [a, b], ascending."""
    k = np.arange(order + 1)
    x = np.cos(np.pi * k / order)[::-1]
    return a + 0.5 * (b - a) * (x + 1.0)


def chebyshev_cumulative(order: int, a: float, b: float) -> np.ndarray:
    """Spectral integration matrix on ``chebyshev_nodes(order, a, b)``.

    Returns Q with (Q @ f)_j = int_a^{x_j} p(x) dx, where p is the degree-order
    interpolant of the values f at the nodes x. Q[-1] is the Clenshaw-Curtis
    rule on [a, b] (Trefethen, SIAM Rev. 50, 2008).
    """
    cheb = np.polynomial.chebyshev
    x = chebyshev_nodes(order, -1.0, 1.0)
    coeffs = np.linalg.solve(cheb.chebvander(x, order), np.eye(order + 1))
    integrals = cheb.chebint(coeffs, lbnd=-1.0)
    return 0.5 * (b - a) * (cheb.chebvander(x, order + 1) @ integrals)
