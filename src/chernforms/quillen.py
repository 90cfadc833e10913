"""Superconnection character forms for morphisms of graded bundles.

Data: a morphism sigma: E+ -> E- over a chart (invertible off a compact
support region) and an auxiliary connection given by an odd form-valued
matrix omega. The self-adjoint odd matrix v = [[0, sigma*], [sigma, 0]]
drives the scaled curvature

    F(sigma, A, t) = -t^2 v^2 + i t [d + omega, v] + (d omega + omega^2),

whose exponential yields the character form Ch = Str e^F, the transgression
eta = -Str(i v e^F), and the off-support primitive beta = int_t^inf eta.
Every morphism built here has v^2 = h I in the value slot, so
eta(t) = e^{-h t^2} q(t) with q an odd polynomial in t, and beta is the exact
Gauss-Laguerre tail rule ``odd_gaussian_rule`` at a handful of t-nodes; the
finite transgression delta = int_0^T eta uses order-doubling Gauss-Legendre.
The pair (Ch(A), beta) is a relative cocycle; a cutoff chi that is 1 near
the support turns it into the compactly supported representative
chi Ch(A) + d chi ^ beta.

Products of two morphisms combine through the graded tensor sum; the
mismatch between beta of the product and the product of the relative
cocycles is d(B1 - B2), with the double transgression integrals (b_forms)

    B1 = phi1 int_0^inf beta1(t) ^ eta2(t) dt,
    B2 = phi2 int_0^inf eta1(t) ^ beta2(t) dt.

Each integrand is e^{-(h1 + h2) t^2} times an odd polynomial, so the same tail
rule gives the outer integral, and the inner beta's are its tails from the
outer nodes.

Every one of these forms (Ch, eta, beta, the finite transgression delta and
the double integrals B1, B2) is read from one t-batched kernel,
``_character_slots``: F(t) for a whole t-array, one graded exponential, one
supertrace over the batch. A single-t form is a one-element batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np

from .exterior import ChartPoint, FormField, FormValue, as_point
from .jets import jet_constant
from .quadrature import gauss_legendre, odd_gaussian_rule
from .relative import RelativeCochain, p_chi
from .superlinalg import (
    ParitySplit,
    SuperMatrixForm,
    d_bracket,
    graded_exp,
    jet_slots,
    lincomb,
    slots_form,
    star_product,
    supertrace_slots,
)

__all__ = [
    "MorphismBundle",
    "SuperConnectionData",
    "v_sigma",
    "chern_form",
    "eta_form",
    "beta_form",
    "delta_form",
    "ch_rel",
    "ch_sup_rep",
    "tensor_morphism",
    "tensor_connection",
    "b_forms",
]

# The finite transgression delta on [0, T] (delta_form, the independent check
# of beta_form): Gauss-Legendre orders double from 32 to at most 256 until two
# agree to BETA_QUAD_TOL.
BETA_QUAD_TOL = 1e-10

# The exact tail rule needs v^2 = h I in the value slot; entries may miss
# h I by this much relative to h (round-off).
SCALAR_V2_TOL = 1e-12


@dataclass
class MorphismBundle:
    """A graded-bundle morphism over one chart.

    ``sigma(point)`` returns the matrix of sigma: E+ -> E- as a jet stack of
    shape (1 + m + m^2, minus_dim, plus_dim): value, gradients, row-major
    Hessian. ``support(point)`` says whether sigma fails to be invertible
    there. A sigma that takes rows of nodes returns a leading node axis, and
    its support a boolean mask.
    """

    split: ParitySplit
    chart_dim: int
    sigma: Callable[[ChartPoint], np.ndarray]
    support: Callable[[ChartPoint], bool]


@dataclass
class SuperConnectionData:
    """Auxiliary odd connection matrix; ``None`` omega means d alone.

    ``omega(point)`` returns a SuperMatrixForm with order-2 jets and only
    positive form degrees.
    """

    omega: Callable[[ChartPoint], SuperMatrixForm] | None = None


def v_sigma(b: MorphismBundle, point, order: int = 2) -> SuperMatrixForm:
    """The odd self-adjoint matrix [[0, sigma*], [sigma, 0]] at a point."""
    p = as_point(point)
    sig = np.asarray(b.sigma(p), dtype=complex)
    m = b.chart_dim
    slots = jet_slots(order, m)
    if sig.shape[-3] < slots:
        raise ValueError("sigma jets do not carry the requested order")
    sig = sig[..., :slots, :, :]
    np_, nm = b.split.plus_dim, b.split.minus_dim
    if sig.shape[-2:] != (nm, np_):
        raise ValueError("sigma block has the wrong shape")
    n = b.split.dim
    arr = np.zeros(sig.shape[:-2] + (n, n), dtype=complex)
    arr[..., np_:, :np_] = sig
    arr[..., :np_, np_:] = np.conj(np.swapaxes(sig, -1, -2))
    return SuperMatrixForm(b.split, m, {(): arr})


class _CurvaturePieces:
    """Point-local ingredients of F(t) = -t^2 V2 + t X + Y.

    At a row of nodes each carries an empty t-axis after the node axis.
    """

    __slots__ = ("v", "v2", "x", "y")

    def __init__(self, b: MorphismBundle, a: SuperConnectionData, point, order: int):
        if order not in (0, 1):
            raise ValueError("curvature jets are carried at order 0 or 1")
        v_hi = v_sigma(b, point, order=order + 1)
        self.v = v_hi.truncate_order(order)
        self.v2 = star_product(self.v, self.v).truncate_order(order)
        x = d_bracket(v_hi).truncate_order(order)
        y = None
        if a.omega is not None:
            om = a.omega(point)
            x = x + star_product(om, self.v) + star_product(self.v, om)
            y = d_bracket(om).truncate_order(order) + star_product(
                om, om
            ).truncate_order(order)
        self.x = 1j * x
        self.y = y
        if as_point(point).coords.ndim > 1:
            # A row: room for the t-axis after the node axis.
            self.v, self.v2, self.x = _t_axis(self.v), _t_axis(self.v2), _t_axis(self.x)
            self.y = None if y is None else _t_axis(y)

    def curvature(self, ts: np.ndarray) -> SuperMatrixForm:
        """F(t) for a t-array, on the axis after any node axes; X drops out when all t = 0."""
        tt = ts[:, None, None, None]
        parts = [(-(tt**2), self.v2)]
        if ts.any():
            parts.append((tt, self.x))
        if self.y is not None:
            parts.append((1.0, self.y))
        return lincomb(parts)


def _t_axis(mat: SuperMatrixForm) -> SuperMatrixForm:
    """Room for a t-axis between a matrix's node axes and its jet slots."""
    comps = {i: c[..., None, :, :, :] for i, c in mat.components.items()}
    return SuperMatrixForm(mat.split, mat.chart_dim, comps)


def _character_slots(pieces: _CurvaturePieces, ts: np.ndarray, eta: bool = False) -> dict:
    """Str e^{F(t)}, or eta(t) = -Str(i v e^{F(t)}), as arrays {index -> (..., T, slots)}.

    Node axes of a row come first, then the t-axis; ``graded_exp`` scales
    each node on its own, so a row gives every node its single-point bits.
    """
    e = graded_exp(pieces.curvature(ts))
    if not eta:
        return supertrace_slots(e)
    return {i: -c for i, c in supertrace_slots(star_product(1j * pieces.v, e)).items()}


def _single_t_field(b, a, t: float, jet_order: int, eta: bool, name: str) -> FormField:
    """Ch or eta at one t: entry 0 of a one-element t-batch at each point or row."""

    def evaluate(p: ChartPoint) -> FormValue:
        pieces = _CurvaturePieces(b, a, p, jet_order)
        rows = _character_slots(pieces, np.array([t], dtype=float), eta)
        return slots_form({i: c[..., 0, :] for i, c in rows.items()}, b.chart_dim)

    return FormField(b.chart_dim, evaluate, name=name)


def chern_form(
    b: MorphismBundle, a: SuperConnectionData, t: float, jet_order: int = 0
) -> FormField:
    """Str exp F(sigma, A, t); at t = 0 this is the character of A alone."""
    if t == 0.0 and a.omega is None:
        # F(0) vanishes, so the character is the constant Str(I) = p - q.
        const = complex(b.split.plus_dim - b.split.minus_dim)
        m = b.chart_dim

        def evaluate_const(p: ChartPoint) -> FormValue:
            c = const if jet_order == 0 else jet_constant(const, m, jet_order)
            return FormValue(m, {(): c}, validate=False)

        return FormField(m, evaluate_const, name="chern(t=0)")

    return _single_t_field(b, a, t, jet_order, False, f"chern(t={t})")


def eta_form(
    b: MorphismBundle, a: SuperConnectionData, t: float, jet_order: int = 0
) -> FormField:
    """The transgression -Str(i v exp F), satisfying dCh/dt = -d eta."""
    return _single_t_field(b, a, t, jet_order, True, f"eta(t={t})")


def _eta_rule(pieces, ts: np.ndarray, ws: np.ndarray) -> dict:
    """sum_k ws[k] eta(ts[k]) as arrays {index -> slots}, from one t-batch."""
    vals = _character_slots(pieces, ts, eta=True)
    return {i: np.tensordot(ws, arr, axes=(0, 0)) for i, arr in vals.items()}


def _integrate_eta(pieces, t_lo: float, t_hi: float) -> dict:
    order = 32
    prev = _eta_rule(pieces, *gauss_legendre(order, t_lo, t_hi))
    while order < 256:
        order *= 2
        cur = _eta_rule(pieces, *gauss_legendre(order, t_lo, t_hi))
        delta = 0.0
        for i in cur:
            ref = prev.get(i)
            d = np.abs(cur[i] - ref).max() if ref is not None else np.abs(cur[i]).max()
            if not np.isfinite(d):
                raise ValueError(f"eta quadrature on [{t_lo:g}, {t_hi:g}] is not finite")
            delta = max(delta, d)
        if delta < BETA_QUAD_TOL:
            return cur
        prev = cur
    raise RuntimeError(
        f"eta quadrature on [{t_lo:g}, {t_hi:g}] did not converge: the order-{order} "
        f"step still moved by {delta:.3g} (tolerance {BETA_QUAD_TOL:g})"
    )


def _gaussian_rate(pieces: _CurvaturePieces) -> float:
    """The scalar h with v^2 = h I in the value slot: the decay rate of eta."""
    v2 = pieces.v2.component(())[0]
    h = float(np.real(np.trace(v2))) / len(v2)
    if not 0.0 < h < np.inf:
        raise ValueError(f"no Gaussian decay here (no spectral gap): h = {h!r}")
    off = np.abs(v2 - h * np.eye(len(v2))).max()
    if not off <= SCALAR_V2_TOL * h:
        raise ValueError(
            f"v^2 is not h I at this point: its value slot is {off:.3g} away "
            f"from h I with h = {h:.6g}"
        )
    return h


def beta_form(
    b: MorphismBundle,
    a: SuperConnectionData,
    t_lo: float = 0.0,
    jet_order: int = 0,
) -> FormField:
    """The primitive beta = int_{t_lo}^inf eta dt, defined off the support.

    Where v^2 = h I in the value slot, F(t) = -t^2 h + N(t) with N nilpotent:
    its form part has degree <= m and t-degree 1 per form degree, its jet
    part (the derivatives of v^2) enters with t^2 at most ``jet_order``
    times. Each form degree carries t-powers of its own parity and eta has
    odd form degree, so eta(t) = e^{-h t^2} q(t) with q odd and
    deg q <= D = m + 2 jet_order, and ``odd_gaussian_rule(D, h, t_lo)``
    integrates it over [t_lo, inf) exactly, at floor((D-1)/4) + 1 t-nodes in
    one batch (one for the plane at jet order 0).

    Raises ValueError where h is not positive and finite (no Gaussian decay,
    or a NaN point), where the value slot of v^2 is not h I to relative
    SCALAR_V2_TOL, and where t_lo is not finite; all before any exponential
    is taken.
    """
    m = b.chart_dim
    degree = m + 2 * jet_order

    def evaluate(p: ChartPoint) -> FormValue:
        pieces = _CurvaturePieces(b, a, p, jet_order)
        ts, ws = odd_gaussian_rule(degree, _gaussian_rate(pieces), t_lo)
        return slots_form(_eta_rule(pieces, ts, ws), m)

    return FormField(
        m,
        evaluate,
        domain=lambda p: np.logical_not(b.support(p)),
        name="beta",
    )


def delta_form(
    b: MorphismBundle,
    a: SuperConnectionData,
    t_hi: float,
    jet_order: int = 0,
) -> FormField:
    """The finite transgression int_0^{t_hi} eta dt (defined everywhere)."""
    m = b.chart_dim

    def evaluate(p: ChartPoint) -> FormValue:
        pieces = _CurvaturePieces(b, a, p, jet_order)
        return slots_form(_integrate_eta(pieces, 0.0, t_hi), m)

    return FormField(m, evaluate, name="delta")


def ch_rel(
    b: MorphismBundle, a: SuperConnectionData, jet_order: int = 0
) -> RelativeCochain:
    """The relative cocycle (Ch(A), beta)."""
    return RelativeCochain(
        alpha=chern_form(b, a, 0.0, jet_order=jet_order),
        beta=beta_form(b, a, 0.0, jet_order=jet_order),
    )


def ch_sup_rep(
    b: MorphismBundle,
    a: SuperConnectionData,
    chi: FormField,
    jet_order: int = 0,
) -> FormField:
    """Compactly supported representative chi Ch(A) + d chi ^ beta."""
    return p_chi(ch_rel(b, a, jet_order=jet_order), chi)


# -- tensor products ----------------------------------------------------------


def _tensor_layout(s1: ParitySplit, s2: ParitySplit):
    """Basis order of E1 (x) E2: even pairs first ((+,+), (-,-)), then odd.

    Returns the factor indices (first, second) of each basis vector as two
    integer arrays, and the split of the product.
    """
    plus1, minus1 = range(s1.plus_dim), range(s1.plus_dim, s1.dim)
    plus2, minus2 = range(s2.plus_dim), range(s2.plus_dim, s2.dim)
    even = [*product(plus1, plus2), *product(minus1, minus2)]
    odd = [*product(minus1, plus2), *product(plus1, minus2)]
    first, second = np.array(even + odd).T
    return first, second, ParitySplit(len(even), len(odd))


def _embed_factor(
    arr: np.ndarray, s1: ParitySplit, s2: ParitySplit, which: int
) -> np.ndarray:
    """Embed an endomorphism of one factor into E1 (x) E2 (forms-first).

    which = 1: M (x) Id, no signs. which = 2: Id (x) N, with the Koszul sign
    (-1)^{(par(k)+par(l)) par(j)} on the entry at ((j,k),(j,l)).
    """
    first, second, _ = _tensor_layout(s1, s2)
    own, other = (first, second) if which == 1 else (second, first)
    block = arr[..., own[:, None], own[None, :]]
    if which == 2:
        g1, g2 = s1.grading(), s2.grading()
        odd = (g2[own][:, None] * g2[own][None, :] < 0) & (g1[other][:, None] < 0)
        block = np.where(odd, -1.0, 1.0) * block
    return np.where(other[:, None] == other[None, :], block, 0.0)


def tensor_morphism(b1: MorphismBundle, b2: MorphismBundle) -> MorphismBundle:
    """The product morphism on E1 (x) E2 (graded tensor sum of the v's)."""
    if b1.chart_dim != b2.chart_dim:
        raise ValueError("chart dimension mismatch")
    _, _, split = _tensor_layout(b1.split, b2.split)
    np_tot = split.plus_dim

    def sigma(point):
        v1 = v_sigma(b1, point, order=2).component(())
        v2 = v_sigma(b2, point, order=2).component(())
        big = _embed_factor(v1, b1.split, b2.split, 1) + _embed_factor(
            v2, b1.split, b2.split, 2
        )
        return big[:, np_tot:, :np_tot]

    return MorphismBundle(
        split=split,
        chart_dim=b1.chart_dim,
        sigma=sigma,
        support=lambda p: np.logical_and(b1.support(p), b2.support(p)),
    )


def tensor_connection(
    b1: MorphismBundle,
    b2: MorphismBundle,
    a1: SuperConnectionData,
    a2: SuperConnectionData,
) -> SuperConnectionData:
    """omega1 (x) Id + Id (x) omega2 on the product bundle."""
    if a1.omega is None and a2.omega is None:
        return SuperConnectionData(None)
    _, _, split = _tensor_layout(b1.split, b2.split)
    m = b1.chart_dim

    def omega(point):
        comps: dict[tuple[int, ...], np.ndarray] = {}
        if a1.omega is not None:
            for i, c in a1.omega(point).components.items():
                comps[i] = _embed_factor(c, b1.split, b2.split, 1)
        if a2.omega is not None:
            for i, c in a2.omega(point).components.items():
                term = _embed_factor(c, b1.split, b2.split, 2)
                comps[i] = comps[i] + term if i in comps else term
        return SuperMatrixForm(split, m, comps)

    return SuperConnectionData(omega)


# -- the double transgression integrals ---------------------------------------


def _wedge_slot_arrays(e1: dict, e2: dict, weights: np.ndarray, m: int) -> dict:
    """sum_n w_n e1[n] ^ e2[n] for coefficient arrays {idx -> (N, S)}."""
    from .exterior import merge_multiindex

    out: dict[tuple[int, ...], np.ndarray] = {}
    for i1, c1 in e1.items():
        for i2, c2 in e2.items():
            sign, merged = merge_multiindex(i1, i2)
            if sign == 0:
                continue
            s = min(c1.shape[1], c2.shape[1])
            prod = np.empty((c1.shape[0], s), dtype=complex)
            prod[:, 0] = c1[:, 0] * c2[:, 0]
            if s > 1:
                prod[:, 1:s] = (
                    c1[:, 0:1] * c2[:, 1:s] + c1[:, 1:s] * c2[:, 0:1]
                )
            acc = sign * np.tensordot(weights, prod, axes=(0, 0))
            out[merged] = out[merged] + acc if merged in out else acc
    return out


def _eta_and_tails(pieces, degree: int, h: float, ts: np.ndarray) -> tuple[dict, dict]:
    """eta(t) and beta(t) = int_t^inf eta at every t in ts, as arrays
    {index -> (len(ts), S)}, from one t-batch: ts, then the tail-rule nodes
    from each of them."""
    tail_ts, tail_ws = odd_gaussian_rule(degree, h, ts)
    vals = _character_slots(pieces, np.concatenate([ts, tail_ts.ravel()]), eta=True)
    n = len(ts)
    eta = {i: c[:n] for i, c in vals.items()}
    beta = {
        i: np.einsum("kj,kjs->ks", tail_ws, c[n:].reshape(*tail_ws.shape, -1))
        for i, c in vals.items()
    }
    return eta, beta


def b_forms(
    b1: MorphismBundle,
    a1: SuperConnectionData,
    b2: MorphismBundle,
    a2: SuperConnectionData,
    phis: tuple[FormField, FormField],
    jet_order: int = 1,
) -> tuple[FormField, FormField]:
    """The ordered double integrals of eta1 ^ eta2 against the partition.

        B1 = phi1 int_0^inf beta1(t) ^ eta2(t) dt = phi1 int_{s>t} eta1(s) ^ eta2(t),
        B2 = phi2 int_0^inf eta1(t) ^ beta2(t) dt = phi2 int_{s<t} eta1(s) ^ eta2(t),

    so B1/phi1 + B2/phi2 = beta1(0) ^ beta2(0). Their difference is a primitive
    of beta_12 - beta_diamond. eta_b is e^{-h_b t^2} times an odd polynomial
    of degree <= D = m + 2 jet_order and beta_b is e^{-h_b t^2} times an even
    one of degree < D. Both integrands are therefore e^{-(h1 + h2) t^2} times
    an odd polynomial of degree < 2D, which one outer
    ``odd_gaussian_rule(2D, h1 + h2)`` integrates exactly; beta_b at its nodes
    is the tail rule from each node. Each factor needs one t-batch (9 t-values
    for the C^2 factors at jet order 1).

    Raises ValueError, before any exponential, where either factor's v^2 is
    not h I (see ``beta_form``).
    """
    phi1, phi2 = phis
    m = b1.chart_dim
    degree = m + 2 * jet_order
    # Callers evaluate B1 and B2 back to back at one point, so only the last
    # point is kept.
    cache: dict[bytes, tuple[FormValue, FormValue]] = {}

    def compute(p: ChartPoint) -> tuple[FormValue, FormValue]:
        key = p.coords.tobytes()
        if key in cache:
            return cache[key]
        pc1 = _CurvaturePieces(b1, a1, p, jet_order)
        pc2 = _CurvaturePieces(b2, a2, p, jet_order)
        h1, h2 = _gaussian_rate(pc1), _gaussian_rate(pc2)
        ts, ws = odd_gaussian_rule(2 * degree, h1 + h2)
        eta1, beta1 = _eta_and_tails(pc1, degree, h1, ts)
        eta2, beta2 = _eta_and_tails(pc2, degree, h2, ts)
        raw1 = _wedge_slot_arrays(beta1, eta2, ws, m)
        raw2 = _wedge_slot_arrays(eta1, beta2, ws, m)

        w1 = phi1(p).coefficient(())
        w2 = phi2(p).coefficient(())
        fv1 = slots_form(raw1, m) * w1
        fv2 = slots_form(raw2, m) * w2
        cache.clear()
        cache[key] = (fv1, fv2)
        return cache[key]

    field1 = FormField(m, lambda p: compute(p)[0], name="B1")
    field2 = FormField(m, lambda p: compute(p)[1], name="B2")
    return field1, field2
