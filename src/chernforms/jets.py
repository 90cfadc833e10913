"""Forward-mode jets (value, gradient, optional Hessian), at a point or a row.

A ``Jet`` carries a complex value together with its first partials with
respect to the chart coordinates, and optionally the full Hessian. All
arithmetic propagates derivatives by the chain rule, so any closed-form
expression built from jets yields exact derivatives (no finite differences).

Coefficients of differential forms in this package are plain numbers, node
arrays or jets; the exterior derivative consumes one derivative order.

At a single point a jet's value is a Python complex, its gradient has shape
(m,) and its Hessian (m, m). At a row of k nodes (a ``ChartPoint`` with
coords of shape (k, m)) each part may carry a leading node axis: value (k,),
gradient (k, m), Hessian (k, m, m); a part without it is shared by every
node, and a plain coefficient is then a complex array of shape (k,).

A row gives, node by node, the bits of single points. Python multiplies two
complex numbers with separately rounded products and divides them by
Smith's method, while numpy's complex loops may fuse a multiply-add and
divide by scaling with a reciprocal. So a product or quotient of two values
on a row goes through ``coeff_mul`` / ``_cdiv``, which repeat CPython's
formulas on the real and imaginary parts; operations of a value with an
array (gradients, Hessians) are numpy's at a point too and stay so.
"""

from __future__ import annotations

import math
from numbers import Number

import numpy as np

__all__ = [
    "Jet",
    "jet_value",
    "jet_constant",
    "jet_coordinates",
    "coeff_mul",
    "take_nodes",
    "scatter_nodes",
    "select_nodes",
]


def _col(v):
    """A value broadcast against gradients: (k,) -> (k, 1); scalars pass."""
    return v[..., None] if isinstance(v, np.ndarray) else v


def _col2(v):
    """A value broadcast against Hessians: (k,) -> (k, 1, 1); scalars pass."""
    return v[..., None, None] if isinstance(v, np.ndarray) else v


def _parts(x):
    if isinstance(x, np.ndarray):
        return x.real, x.imag
    x = complex(x)
    return x.real, x.imag


def _complex(re, im) -> np.ndarray:
    out = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), dtype=complex)
    out.real = re
    out.imag = im
    return out


def _cmul(a, b) -> np.ndarray:
    """a * b by CPython's complex product, on node arrays."""
    ar, ai = _parts(a)
    br, bi = _parts(b)
    return _complex(ar * br - ai * bi, ar * bi + ai * br)


def _cdiv(a, b) -> np.ndarray:
    """a / b by CPython's complex quotient (Smith's method), on node arrays."""
    ar, ai = _parts(a)
    br, bi = _parts(b)
    if not np.all((br != 0.0) | (bi != 0.0)):
        raise ZeroDivisionError("complex division by zero")
    by_real = np.abs(br) >= np.abs(bi)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = bi / br
        denom = br + bi * ratio
        re1, im1 = (ar + ai * ratio) / denom, (ai - ar * ratio) / denom
        ratio = br / bi
        denom = br * ratio + bi
        re2, im2 = (ar * ratio + ai) / denom, (ai * ratio - ar) / denom
    return _complex(np.where(by_real, re1, re2), np.where(by_real, im1, im2))


def coeff_mul(a, b):
    """The product of two form coefficients: numbers, node arrays or jets.

    Node arrays multiply like the Python numbers they hold, so a row gives
    the bits of single points (see the module docstring).
    """
    if (isinstance(a, np.ndarray) or isinstance(b, np.ndarray)) and not (
        isinstance(a, Jet) or isinstance(b, Jet)
    ):
        return _cmul(a, b)
    return a * b


def _outer(g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """g1 (x) g2 per node: np.outer's products, with any node axis kept."""
    return g1[..., :, None] * g2[..., None, :]


def _cube(w):
    """w**3; on node arrays as Python computes it, (1 * w) * (w * w)."""
    return _cmul(_cmul(1.0, w), _cmul(w, w)) if isinstance(w, np.ndarray) else w**3


def _value(x):
    """A computed value as a Jet stores it: a Python complex at a point."""
    return x if isinstance(x, np.ndarray) else complex(x)


def _new(value, grad, hess) -> "Jet":
    """A jet from parts that already have their final types."""
    out = object.__new__(Jet)
    out.value = value
    out.grad = grad
    out.hess = hess
    return out


class Jet:
    """A truncated Taylor expansion of a scalar function at a chart point.

    Parameters
    ----------
    value : complex, or ndarray of shape (k,) on a row of k nodes
        Function value.
    grad : ndarray, shape (m,) or (k, m)
        First partial derivatives.
    hess : ndarray, shape (m, m) or (k, m, m), optional
        Second partials (symmetric). ``None`` means the jet is order 1 and
        any operation needing second derivatives degrades its result to
        order 1 as well.
    """

    __slots__ = ("value", "grad", "hess")

    # numpy must not map its operators over a jet's fields: a node array
    # then defers to the jet's reflected methods below.
    __array_ufunc__ = None

    def __init__(self, value, grad, hess=None):
        if isinstance(value, np.ndarray) and value.ndim:
            self.value = value.astype(complex, copy=False)
        else:
            self.value = complex(value)
        self.grad = np.asarray(grad, dtype=complex)
        self.hess = None if hess is None else np.asarray(hess, dtype=complex)

    @property
    def dim(self) -> int:
        return self.grad.shape[-1]

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
            return _new(self.value + other.value, self.grad + other.grad, h)
        if isinstance(other, (Number, np.ndarray)):
            return _new(_value(self.value + other), self.grad, self.hess)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _new(-self.value, -self.grad, None if self.hess is None else -self.hess)

    def __sub__(self, other):
        if isinstance(other, Jet):
            h = None if self.hess is None or other.hess is None else self.hess - other.hess
            return _new(self.value - other.value, self.grad - other.grad, h)
        return _new(self.value - _value(other), self.grad, self.hess)

    def __rsub__(self, other):
        h = None if self.hess is None else -self.hess
        return _new(_value(other) - self.value, -self.grad, h)

    def __mul__(self, other):
        if isinstance(other, Jet):
            if isinstance(self.value, np.ndarray) or isinstance(other.value, np.ndarray):
                return self._row_mul(other)
            h = None
            if self.hess is not None and other.hess is not None:
                cross = _outer(self.grad, other.grad)
                h = self.value * other.hess + other.value * self.hess
                h = h + cross + cross.swapaxes(-1, -2)
            return _new(
                self.value * other.value,
                self.value * other.grad + other.value * self.grad,
                h,
            )
        if isinstance(other, np.ndarray) or isinstance(self.value, np.ndarray):
            if not isinstance(other, (Number, np.ndarray)):
                return NotImplemented
            return _new(
                _cmul(self.value, other),
                self.grad * _col(other),
                None if self.hess is None else self.hess * _col2(other),
            )
        if isinstance(other, Number):
            return _new(
                _value(self.value * other),
                self.grad * other,
                None if self.hess is None else self.hess * other,
            )
        return NotImplemented

    __rmul__ = __mul__

    def _row_mul(self, other: "Jet") -> "Jet":
        """The product of two jets, at least one on a row: ``__mul__``'s formulas."""
        a, b = self.value, other.value
        h = None
        if self.hess is not None and other.hess is not None:
            cross = _outer(self.grad, other.grad)
            h = _col2(a) * other.hess + _col2(b) * self.hess + cross + cross.swapaxes(-1, -2)
        return _new(_cmul(a, b), _col(a) * other.grad + _col(b) * self.grad, h)

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        if isinstance(other, np.ndarray):
            return self * _cdiv(1.0, other)
        if isinstance(other, Number):
            return self * (1.0 / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (Number, np.ndarray)):
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
        v, g = self.value, self.grad
        w = _cdiv(1.0, v) if isinstance(v, np.ndarray) else 1.0 / v
        wg, wh = _col(w), _col2(w)
        grad = -g * wg * wg
        h = None
        if self.hess is not None:
            h = 2.0 * _outer(g, g) * _col2(_cube(w)) - self.hess * wh * wh
        return _new(w, grad, h)

    # -- analytic functions ------------------------------------------------

    def _lift(self, f0, f1, f2):
        """Compose with a scalar analytic function given f, f', f'' at value."""
        h = None
        if self.hess is not None:
            h = _col2(f1) * self.hess + _col2(f2) * _outer(self.grad, self.grad)
        return _new(_value(f0), _col(f1) * self.grad, h)

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


def jet_value(x):
    """The plain value of a coefficient: a complex, or a node array on a row."""
    if isinstance(x, Jet):
        return x.value
    return x if isinstance(x, np.ndarray) and x.ndim else complex(x)


def jet_constant(value, dim: int, order: int = 2) -> Jet:
    """A constant jet (zero derivatives) on a ``dim``-coordinate chart."""
    hess = np.zeros((dim, dim), dtype=complex) if order >= 2 else None
    return _new(complex(value), np.zeros(dim, dtype=complex), hess)


def jet_coordinates(coords, order: int = 2) -> list[Jet]:
    """Coordinate functions as jets at the given point or row.

    Returns one Jet per coordinate; the i-th has value ``coords[..., i]``
    and gradient ``e_i`` (shared by the nodes of a row).
    """
    coords = np.asarray(coords, dtype=float)
    m = coords.shape[-1]
    values = coords.T.astype(complex) if coords.ndim > 1 else coords.tolist()
    out = []
    for i in range(m):
        g = np.zeros(m, dtype=complex)
        g[i] = 1.0
        h = np.zeros((m, m), dtype=complex) if order >= 2 else None
        out.append(Jet(values[i], g, h))
    return out


# -- coefficients on rows ------------------------------------------------------


def take_nodes(coeff, mask: np.ndarray):
    """A coefficient at the nodes of a row where ``mask`` holds; shared parts stay shared."""
    if isinstance(coeff, Jet):
        grad, hess = coeff.grad, coeff.hess
        if grad.ndim > 1:
            grad = grad[mask]
        if hess is not None and hess.ndim > 2:
            hess = hess[mask]
        value = coeff.value
        return _new(value[mask] if isinstance(value, np.ndarray) else value, grad, hess)
    return coeff[mask] if isinstance(coeff, np.ndarray) else coeff


def scatter_nodes(coeff, mask: np.ndarray):
    """A sub-row coefficient placed on the full row: exact zeros off ``mask``."""
    k = mask.shape[0]
    if not isinstance(coeff, Jet):
        out = np.zeros(k, dtype=complex)
        out[mask] = coeff
        return out
    m = coeff.dim
    hess = None if coeff.hess is None else np.zeros((k, m, m), dtype=complex)
    out = _new(np.zeros(k, dtype=complex), np.zeros((k, m), dtype=complex), hess)
    _put(out, mask, coeff)
    return out


def select_nodes(mask: np.ndarray, a, b):
    """Node by node, ``a`` where ``mask`` holds and ``b`` elsewhere.

    A jet result keeps a Hessian only where both sides have one.
    """
    if not (isinstance(a, Jet) or isinstance(b, Jet)):
        return np.where(mask, a, b)
    a, b = _as_jet(a, b), _as_jet(b, a)
    hess = None
    if a.hess is not None and b.hess is not None:
        hess = np.where(mask[:, None, None], a.hess, b.hess)
    return _new(
        np.where(mask, a.value, b.value), np.where(mask[:, None], a.grad, b.grad), hess
    )


def _as_jet(x, like: Jet) -> Jet:
    return x if isinstance(x, Jet) else jet_constant(0.0, like.dim, like.order) + x


def _steps(mask_one: np.ndarray, dim: int, order: int) -> Jet:
    """A row of constant jets, 1 where ``mask_one`` holds and 0 elsewhere."""
    k = mask_one.shape[0]
    hess = np.zeros((k, dim, dim), dtype=complex) if order >= 2 else None
    return _new(np.where(mask_one, 1.0 + 0.0j, 0.0j), np.zeros((k, dim), dtype=complex), hess)


def _put(out: Jet, mask: np.ndarray, part: Jet) -> None:
    out.value[mask] = part.value
    out.grad[mask] = part.grad
    if out.hess is not None:
        out.hess[mask] = part.hess


def _bump_number(w: float) -> float:
    if w > 200.0:
        return 0.0
    if w < -200.0:
        return 1.0
    return 1.0 / (1.0 + math.exp(w))


def _smooth_bump_ratio(w):
    """1/(1+e^w) with hard saturation once the ratio drops below ~1e-87.

    The early cutoff keeps e^w and its squared gradients inside the double
    range, so the reciprocal's Hessian never multiplies inf by zero.
    """
    if not isinstance(w, Jet):
        if isinstance(w, np.ndarray):
            return np.array([_bump_number(x) for x in w.tolist()])
        return _bump_number(w)
    wval = w.value.real
    if isinstance(wval, np.ndarray):
        out = _steps(wval < -200.0, w.dim, w.order)
        live = np.abs(wval) <= 200.0
        if live.any():
            _put(out, live, 1.0 / (1.0 + take_nodes(w, live).exp()))
        return out
    if wval > 200.0:
        return jet_constant(0.0, w.dim, w.order)
    if wval < -200.0:
        return jet_constant(1.0, w.dim, w.order)
    return 1.0 / (1.0 + w.exp())


def smooth_step(u):
    """The standard smooth step: 0 for u <= 0, 1 for u >= 1, C^infinity.

    Implemented as 1/(1 + exp(1/u - 1/(1-u))) on (0, 1), which is exactly 0
    and 1 (all derivatives included) outside. Accepts a float or a Jet, or a
    float array or Jet on a row, whose nodes outside (0, 1) are masked off.
    Raises ValueError for a non-finite value (at any node of a row).
    """
    value = u.value if isinstance(u, Jet) else u
    if isinstance(value, np.ndarray) and value.ndim:
        return _smooth_step_row(u, value)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"smooth step of a non-finite value {value!r}")
    uval = value.real if isinstance(u, Jet) else float(u)
    if uval <= 0.0:
        return jet_constant(0.0, u.dim, u.order) if isinstance(u, Jet) else 0.0
    if uval >= 1.0:
        return jet_constant(1.0, u.dim, u.order) if isinstance(u, Jet) else 1.0
    w = 1.0 / u - 1.0 / (1.0 - u)
    return _smooth_bump_ratio(w)


def _smooth_step_row(u, value: np.ndarray):
    finite = np.isfinite(value)
    if not finite.all():
        j = int(np.argmin(finite))
        raise ValueError(f"smooth step of a non-finite value {value[j].item()!r} at node {j}")
    uval = value.real
    inside = (uval > 0.0) & (uval < 1.0)
    if not isinstance(u, Jet):
        out = np.where(uval >= 1.0, 1.0, 0.0)
        if inside.any():
            s = uval[inside]
            out[inside] = _smooth_bump_ratio(1.0 / s - 1.0 / (1.0 - s))
        return out
    out = _steps(uval >= 1.0, u.dim, u.order)
    if inside.any():
        s = take_nodes(u, inside)
        _put(out, inside, _smooth_bump_ratio(1.0 / s - 1.0 / (1.0 - s)))
    return out
