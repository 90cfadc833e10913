"""Scalar forward-mode jets (value, gradient, optional Hessian).

A ``Jet`` carries a complex value together with its first partials with
respect to the chart coordinates, and optionally the full Hessian. All
arithmetic propagates derivatives by the chain rule, so any closed-form
expression built from jets yields exact derivatives (no finite differences).

Coefficients of differential forms in this package are either plain numbers
or jets; the exterior derivative consumes one derivative order.
"""

from __future__ import annotations

import math
from numbers import Number

import numpy as np

__all__ = ["Jet", "jet_value", "jet_constant", "jet_coordinates"]


class Jet:
    """A truncated Taylor expansion of a scalar function at a chart point.

    Parameters
    ----------
    value : complex
        Function value.
    grad : ndarray, shape (m,)
        First partial derivatives.
    hess : ndarray, shape (m, m), optional
        Second partials (symmetric). ``None`` means the jet is order 1 and
        any operation needing second derivatives degrades its result to
        order 1 as well.
    """

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad, hess=None):
        self.value = complex(value)
        self.grad = np.asarray(grad, dtype=complex)
        self.hess = None if hess is None else np.asarray(hess, dtype=complex)

    @property
    def dim(self) -> int:
        return self.grad.shape[0]

    @property
    def order(self) -> int:
        return 1 if self.hess is None else 2

    def __repr__(self):
        return f"Jet({self.value!r}, grad={self.grad!r}, order={self.order})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            h = None
            if self.hess is not None and other.hess is not None:
                h = self.hess + other.hess
            return Jet(self.value + other.value, self.grad + other.grad, h)
        if isinstance(other, Number):
            return Jet(self.value + other, self.grad, self.hess)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.value, -self.grad, None if self.hess is None else -self.hess)

    def __sub__(self, other):
        if isinstance(other, Jet):
            h = None if self.hess is None or other.hess is None else self.hess - other.hess
            return Jet(self.value - other.value, self.grad - other.grad, h)
        return Jet(self.value - complex(other), self.grad, self.hess)

    def __rsub__(self, other):
        h = None if self.hess is None else -self.hess
        return Jet(complex(other) - self.value, -self.grad, h)

    def __mul__(self, other):
        if isinstance(other, Jet):
            h = None
            if self.hess is not None and other.hess is not None:
                cross = np.outer(self.grad, other.grad)
                h = self.value * other.hess + other.value * self.hess + cross + cross.T
            return Jet(
                self.value * other.value,
                self.value * other.grad + other.value * self.grad,
                h,
            )
        if isinstance(other, Number):
            return Jet(
                self.value * other,
                self.grad * other,
                None if self.hess is None else self.hess * other,
            )
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        if isinstance(other, Number):
            return self * (1.0 / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, Number):
            return self._reciprocal() * other
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("jets support integer powers >= 0 only")
        out = jet_constant(1.0, self.dim, self.order)
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def _reciprocal(self):
        v = self.value
        w = 1.0 / v
        grad = -self.grad * w * w
        h = None
        if self.hess is not None:
            outer = np.outer(self.grad, self.grad)
            h = 2.0 * outer * w**3 - self.hess * w * w
        return Jet(w, grad, h)

    # -- analytic functions ------------------------------------------------

    def _lift(self, f0, f1, f2):
        """Compose with a scalar analytic function given f, f', f'' at value."""
        h = None
        if self.hess is not None:
            h = f1 * self.hess + f2 * np.outer(self.grad, self.grad)
        return Jet(f0, f1 * self.grad, h)

    def exp(self):
        e = np.exp(self.value)
        return self._lift(e, e, e)

    def sin(self):
        s, c = np.sin(self.value), np.cos(self.value)
        return self._lift(s, c, -s)

    def cos(self):
        s, c = np.sin(self.value), np.cos(self.value)
        return self._lift(c, -s, -c)

    def sqrt(self):
        r = np.sqrt(self.value)
        return self._lift(r, 0.5 / r, -0.25 / r**3)


def jet_value(x) -> complex:
    """The plain value of a coefficient that may be a Jet or a number."""
    return x.value if isinstance(x, Jet) else complex(x)


def jet_constant(value, dim: int, order: int = 2) -> Jet:
    """A constant jet (zero derivatives) on a ``dim``-coordinate chart."""
    hess = np.zeros((dim, dim), dtype=complex) if order >= 2 else None
    return Jet(value, np.zeros(dim, dtype=complex), hess)


def jet_coordinates(coords, order: int = 2) -> list[Jet]:
    """Coordinate functions as jets at the given point.

    Returns one Jet per coordinate; the i-th has value ``coords[i]`` and
    gradient ``e_i``.
    """
    coords = np.asarray(coords, dtype=float)
    m = coords.shape[0]
    out = []
    for i in range(m):
        g = np.zeros(m, dtype=complex)
        g[i] = 1.0
        h = np.zeros((m, m), dtype=complex) if order >= 2 else None
        out.append(Jet(coords[i], g, h))
    return out


def _smooth_bump_ratio(w):
    """1/(1+e^w) with hard saturation once the ratio drops below ~1e-87.

    The early cutoff keeps e^w and its squared gradients inside the double
    range, so the reciprocal's Hessian never multiplies inf by zero.
    """
    if isinstance(w, Jet):
        if w.value.real > 200.0:
            return jet_constant(0.0, w.dim, w.order)
        if w.value.real < -200.0:
            return jet_constant(1.0, w.dim, w.order)
        return 1.0 / (1.0 + w.exp())
    if w > 200.0:
        return 0.0
    if w < -200.0:
        return 1.0
    return 1.0 / (1.0 + math.exp(w))


def smooth_step(u):
    """The standard smooth step: 0 for u <= 0, 1 for u >= 1, C^infinity.

    Implemented as 1/(1 + exp(1/u - 1/(1-u))) on (0, 1), which is exactly 0
    and 1 (all derivatives included) outside. Accepts a float or a Jet.
    """
    uval = u.value.real if isinstance(u, Jet) else float(u)
    if uval <= 0.0:
        return jet_constant(0.0, u.dim, u.order) if isinstance(u, Jet) else 0.0
    if uval >= 1.0:
        return jet_constant(1.0, u.dim, u.order) if isinstance(u, Jet) else 1.0
    w = 1.0 / u - 1.0 / (1.0 - u)
    return _smooth_bump_ratio(w)
