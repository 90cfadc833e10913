"""Relative cochains (global form, off-support primitive) and their calculus.

A relative cochain is a pair (alpha, beta): alpha defined on the whole
chart, beta off a closed support region, which the ``domain`` of the beta
field records. The differential is
d(alpha, beta) = (d alpha, alpha|_off - d beta). The graded product needs a
two-piece partition of unity (phi1, phi2) subordinate to the complements of
the two supports; the extension map p_chi turns a cochain into a globally
defined form using a cutoff that is 1 near the support.

Mixed-degree pairs are handled through the degree involution
iota(omega) = sum (-1)^k omega^{(k)}, which reduces to the usual
(-1)^{k_1} signs on homogeneous cochains.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .exterior import (
    ChartPoint,
    FormField,
    FormValue,
    as_point,
    degree_involution,
    differentiate_value,
    epsilon_sign,
    exterior_derivative,
    wedge,
)
from .jets import Jet, jet_value
from .quadrature import gauss_hermite, gauss_legendre

__all__ = [
    "RelativeCochain",
    "d_rel",
    "product_phi",
    "p_chi",
    "integrate_compact",
    "integrate_fiber",
]


@dataclass
class RelativeCochain:
    """A pair (alpha, beta) with beta a primitive of alpha off the support.

    The support is not stored: the beta field's ``domain`` says where beta
    exists.
    """

    alpha: FormField
    beta: FormField

    @property
    def chart_dim(self) -> int:
        return self.alpha.chart_dim


def d_rel(c: RelativeCochain) -> RelativeCochain:
    """The relative differential (d alpha, alpha|_off - d beta)."""

    def beta_eval(p: ChartPoint) -> FormValue:
        return c.alpha(p) - differentiate_value(c.beta(p))

    return RelativeCochain(
        alpha=exterior_derivative(c.alpha),
        beta=FormField(c.chart_dim, beta_eval, domain=c.beta.domain),
    )


def _jet_is_zero(coeff) -> bool:
    """True when a scalar coefficient vanishes with all stored derivatives."""
    if isinstance(coeff, Jet):
        if coeff.value != 0.0 or np.any(coeff.grad):
            return False
        return coeff.hess is None or not np.any(coeff.hess)
    return coeff == 0.0


def product_phi(
    a1: RelativeCochain,
    a2: RelativeCochain,
    phis: tuple[FormField, FormField],
) -> RelativeCochain:
    """Graded product of relative cochains through a partition pair.

    alpha = alpha1 ^ alpha2;
    beta  = phi1 beta1 ^ alpha2 + iota(alpha1) ^ phi2 beta2
            + d phi1 ^ iota(beta1) ^ beta2.

    The partition must be subordinate to the support complements: phi1
    vanishes near supp(a1) and phi2 near supp(a2). Where a phi weight is
    identically zero the corresponding primitive is never evaluated.
    """
    phi1, phi2 = phis
    m = a1.chart_dim
    if a2.chart_dim != m:
        raise ValueError("chart dimension mismatch")

    def alpha_eval(p: ChartPoint) -> FormValue:
        return wedge(a1.alpha(p), a2.alpha(p))

    def beta_eval(p: ChartPoint) -> FormValue:
        f1 = phi1(p)
        f2 = phi2(p)
        w1 = f1.coefficient(())
        w2 = f2.coefficient(())
        need1 = not _jet_is_zero(w1)
        need2 = not _jet_is_zero(w2)
        out = FormValue.zero(m)
        b1 = a1.beta(p) if need1 else None
        b2 = a2.beta(p) if need2 else None
        if need1:
            out = out + wedge(b1 * w1, a2.alpha(p))
        if need2:
            out = out + wedge(degree_involution(a1.alpha(p)), b2 * w2)
        if need1 and need2:
            dphi1 = differentiate_value(f1)
            if dphi1.terms:
                out = out + wedge(dphi1, wedge(degree_involution(b1), b2))
        return out

    return RelativeCochain(alpha=FormField(m, alpha_eval), beta=FormField(m, beta_eval))


def p_chi(c: RelativeCochain, chi: FormField) -> FormField:
    """Globally defined representative chi alpha + d chi ^ beta.

    ``chi`` must be identically 1 on a neighborhood of the support, so the
    second term (the only one needing beta) lives where beta exists.
    """
    m = c.chart_dim

    def evaluate(p: ChartPoint) -> FormValue:
        chi_val = chi(p)
        w = chi_val.coefficient(())
        out = c.alpha(p) * w
        dchi = differentiate_value(chi_val)
        if dchi.terms and not all(_jet_is_zero(v) for v in dchi.terms.values()):
            out = out + wedge(dchi, c.beta(p))
        return out

    return FormField(m, evaluate, name="p_chi")


def _tensor_grid(axes):
    """Walk a tensor-product rule in lexicographic order, last axis fastest.

    ``axes`` lists (nodes, weights) per axis. Yields each node tuple with its
    weight, multiplied axis by axis in axis order.
    """
    for picks in product(*(zip(nodes, weights) for nodes, weights in axes)):
        w = 1.0
        for _, wk in picks:
            w *= wk
        yield tuple(x for x, _ in picks), w


def integrate_compact(
    field: FormField, box: list[tuple[float, float]], order: int = 64
) -> complex:
    """Integrate the top-degree coefficient over a product box.

    Tensor Gauss-Legendre with ``order`` nodes per axis; the orientation is
    the coordinate order dx_1 ... dx_m. Summation follows the fixed
    lexicographic node order, so results are reproducible bit-for-bit.
    """
    m = field.chart_dim
    if len(box) != m:
        raise ValueError("box does not match the chart dimension")
    top = tuple(range(1, m + 1))
    total = 0.0 + 0.0j
    for nodes, w in _tensor_grid([gauss_legendre(order, a, b) for a, b in box]):
        total += w * field(ChartPoint(nodes)).value(top)
    return total


def integrate_fiber(
    field: FormField,
    fiber_dims: tuple[int, ...],
    mode: str = "compact",
    base_point=None,
    order: int = 48,
    half_width: float | None = None,
) -> FormValue:
    """Push a form on the total chart down the fiber coordinates.

    Extracts, with the sign of moving the fiber differentials to the right,
    the terms whose fiber part is the full fiber volume form, integrates
    their coefficients over the fiber, and relabels the surviving base
    indices to 1..m_base (keeping their order). Fiber orientation is the
    listed order of ``fiber_dims``.

    mode "compact" integrates over [-half_width, half_width]^d with
    Gauss-Legendre, and raises ValueError unless half_width is positive and
    finite; mode "gaussian" uses Gauss-Hermite weights for
    integrands decaying like exp(-|x|^2) and covers the whole
    fiber; it raises ValueError for an order whose rescaled weights
    w e^{y^2} are not all finite and positive (above about order 370).
    """
    m = field.chart_dim
    fiber = tuple(fiber_dims)
    if sorted(set(fiber)) != sorted(fiber):
        raise ValueError("fiber dims must be distinct")
    if any(not 1 <= i <= m for i in fiber):
        raise ValueError(f"fiber dims {fiber!r} are not all in 1..{m}")
    d = len(fiber)
    base_dims = [i for i in range(1, m + 1) if i not in set(fiber)]
    relabel = {dim: k + 1 for k, dim in enumerate(base_dims)}
    base = as_point(base_point if base_point is not None else [])
    if base.dim != len(base_dims):
        raise ValueError("base point does not match non-fiber dimensions")

    if mode == "compact":
        if half_width is None:
            raise ValueError("compact mode needs half_width")
        if not (np.isfinite(half_width) and half_width > 0.0):
            raise ValueError(f"half_width must be positive and finite, got {half_width!r}")
        x1, w1 = gauss_legendre(order, -half_width, half_width)
        axes = [(x1, w1)] * d
    elif mode == "gaussian":
        with np.errstate(all="ignore"):
            y, wgh = gauss_hermite(order)
            scaled = wgh * np.exp(y * y)
        if not np.all(np.isfinite(scaled) & (scaled > 0.0)):
            raise ValueError(
                f"Gauss-Hermite order {order} is unusable: its weights times "
                "e^{y^2} underflow or overflow"
            )
        axes = [(y, scaled)] * d
    else:
        raise ValueError(f"unknown mode {mode!r}")

    # Orientation of the listed fiber order against the sorted one.
    orient = (-1) ** sum(a > b for a, b in combinations(fiber, 2))
    fiber_sorted = tuple(sorted(fiber))
    fiber_set = set(fiber)

    coords = np.empty(m)
    coords[[dim - 1 for dim in base_dims]] = base.coords
    fiber_at = [dim - 1 for dim in fiber]

    out: dict[tuple[int, ...], complex] = {}
    for nodes, w in _tensor_grid(axes):
        coords[fiber_at] = nodes
        fv = field(ChartPoint(coords))
        for index, coeff in fv.terms.items():
            if tuple(i for i in index if i in fiber_set) != fiber_sorted:
                continue
            base_part = tuple(i for i in index if i not in fiber_set)
            # Sign of moving dx_fiber to the right of the base differentials.
            sign = orient * epsilon_sign(base_part, fiber_sorted)
            val = sign * w * jet_value(coeff)
            new_index = tuple(relabel[i] for i in base_part)
            out[new_index] = out.get(new_index, 0.0) + val
    return FormValue(len(base_dims), out, validate=False)
