"""Quadrature and interpolation helpers shared across the package.

Thin caching wrappers around numpy's Gauss-Legendre / Gauss-Hermite node
generators, the tail cutoff of Gaussian-decaying t-integrals, and
barycentric Chebyshev interpolation used to cache expensive integrands.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "gauss_legendre",
    "gauss_hermite",
    "tail_cutoff",
    "chebyshev_nodes",
    "barycentric_matrix",
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


def tail_cutoff(h: float, t_lo: float) -> float:
    """Upper end T0 of a t-integral on [t_lo, inf) decaying like e^{-h t^2}.

    T0 = max(TAIL_FLOOR, TAIL_SCALE / sqrt(h), t_lo + 1), so h T0^2 >= TAIL_SCALE^2
    and the dropped tail is O(e^{-TAIL_SCALE^2}) of the local scale.
    """
    if h <= 0.0:
        raise ValueError("no Gaussian decay here (no spectral gap)")
    return max(TAIL_FLOOR, TAIL_SCALE / np.sqrt(h), t_lo + 1.0)


def chebyshev_nodes(order: int, a: float, b: float) -> np.ndarray:
    """Chebyshev points of the second kind on [a, b], ascending."""
    k = np.arange(order + 1)
    x = np.cos(np.pi * k / order)[::-1]
    return a + 0.5 * (b - a) * (x + 1.0)


def barycentric_matrix(nodes: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Interpolation matrix from Chebyshev nodes to arbitrary targets.

    ``nodes`` must come from :func:`chebyshev_nodes`. Returns a matrix P with
    P @ values_at_nodes == interpolated values_at_targets.
    """
    n = nodes.shape[0] - 1
    weights = np.ones(n + 1)
    weights[1::2] = -1.0
    weights[0] *= 0.5
    weights[-1] *= 0.5
    diff = targets[:, None] - nodes[None, :]
    exact = np.isclose(diff, 0.0, atol=1e-15)
    diff = np.where(exact, 1.0, diff)
    ratios = weights[None, :] / diff
    out = ratios / ratios.sum(axis=1, keepdims=True)
    hit_rows = exact.any(axis=1)
    if np.any(hit_rows):
        out[hit_rows] = 0.0
        out[np.where(hit_rows)[0], np.argmax(exact[hit_rows], axis=1)] = 1.0
    return out
