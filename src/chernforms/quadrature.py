"""Quadrature helpers shared across the package.

Thin caching wrappers around numpy's Gauss-Legendre / Gauss-Hermite node
generators; the tail rule that integrates e^{-h t^2} times an odd polynomial
of bounded degree over [a, inf) exactly, by Gauss-Laguerre in v = t^2 - a^2
(Golub and Welsch, Math. Comp. 23, 1969), its unit nodes cached per node
count; and the tail cutoff of Gaussian-decaying t-integrals.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "gauss_legendre",
    "gauss_hermite",
    "odd_gaussian_rule",
    "tail_cutoff",
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
def _laguerre_unit(n: int):
    """Gauss-Laguerre nodes y and weights om e^y (the weight e^{-y} divided out)."""
    if n == 0:
        return np.zeros(0), np.zeros(0)
    y, om = np.polynomial.laguerre.laggauss(n)
    return y, om * np.exp(y)


def odd_gaussian_rule(degree: int, h: float, t_from=0.0):
    """Nodes s and weights w with sum_k w_k f(s_k) = int_a^inf f(t) dt exactly
    for f(t) = e^{-h t^2} q(t), q any odd polynomial of degree <= ``degree``,
    and a = ``t_from``.

    With q(t) = t r(t^2) and t^2 = a^2 + v the integral is
    (1/2) e^{-h a^2} int_0^inf e^{-h v} r(a^2 + v) dv, which Gauss-Laguerre in
    y = h v integrates exactly at floor((degree-1)/4) + 1 nodes: s =
    sqrt(a^2 + y/h), weights om e^y / (2 h s). The weights carry the factor
    e^{h s^2 - h a^2}, so the rule is applied to f itself. Since f is odd,
    a negative a gives the same integral as |a|. ``t_from`` broadcasts: nodes
    and weights have shape t_from.shape + (n,).
    """
    if not isinstance(degree, int) or degree < 0:
        raise ValueError(f"polynomial degree must be a non-negative integer; got {degree!r}")
    if not 0.0 < h < np.inf:
        raise ValueError(f"no Gaussian decay here (no spectral gap): h = {h!r}")
    a = np.asarray(t_from, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError(f"the lower limit of a tail integral must be finite; got {t_from!r}")
    y, w = _laguerre_unit((degree - 1) // 4 + 1)
    s = np.sqrt(a[..., None] ** 2 + y / h)
    return s, w / (2.0 * h * s)


def tail_cutoff(h: float, t_lo: float) -> float:
    """Upper end T0 of a t-integral on [t_lo, inf) decaying like e^{-h t^2}.

    T0 = max(TAIL_FLOOR, TAIL_SCALE / sqrt(h), t_lo + 1), so h T0^2 >= TAIL_SCALE^2
    and the dropped tail is O(e^{-TAIL_SCALE^2}) of the local scale.
    """
    if not h > 0.0:
        raise ValueError(f"no Gaussian decay here (no spectral gap): h = {h!r}")
    return max(TAIL_FLOOR, TAIL_SCALE / np.sqrt(h), t_lo + 1.0)
