"""Euler and Thom representatives of metric bundles on coordinate charts.

A rank-d Euclidean bundle with orthonormal frame connection W (skew matrix
of 1-forms on the base) is modelled on the chart base x fiber, fiber
coordinates last. With eta_i = dx_i + sum_k x_k W[i,k] and curvature
F = dW + W ^ W, the quadratic fermionic element

    f_t = -t^2 |x|^2 + t sum_i eta_i e_i + (1/2) sum_{i<j} F[j,i] e_i e_j

has Berezin integrals C^t = T(e^{f_t}) and eta^t = -T(x . e^{f_t}); the
normalization 1/eps_d with eps_d = (-1)^{d(d-1)/2} pi^{d/2} makes the pair
(Pf-form, int_0^inf eta^t dt) a relative cocycle whose fiber integral is 1.
The t-integral has a closed form with Gamma-function coefficients
(gamma_coefficient), checked against direct quadrature.

The rank-2 spinor representation ties these to the superconnection side:
sigma_V = -i c(x) and the lifted connection (1/2) W[2,1] c_1 c_2 reproduce
(-2i) A-hat^{-1} C^t as a character form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import sqrt
from typing import Callable

import numpy as np

from .clifford_berezin import (
    SpinorRep2,
    berezin_T,
    default_spinor_rep,
    generator_coefficient,
    generator_form,
    pfaffian,
    spinor_rep,
    wedge_exp,
)
from .exterior import (
    ChartPoint,
    FormField,
    FormValue,
    as_point,
    curvature_entry,
    epsilon_sign,
    wedge,
)
from .jets import Jet, coeff_mul, jet_constant, jet_coordinates, jet_value
from .quadrature import gauss_legendre, tail_cutoff
from .quillen import MorphismBundle, SuperConnectionData, chern_form
from .relative import RelativeCochain, p_chi
from .superlinalg import ParitySplit

__all__ = [
    "EuclideanBundle",
    "epsilon_d",
    "zero_section",
    "f_t_element",
    "c_wedge",
    "eta_wedge",
    "beta_wedge",
    "thom_rel",
    "thom_mq",
    "thom_c",
    "euler_form",
    "gamma_coefficient",
    "log_s_coefficients",
    "a_hat_genus",
    "a_hat_inverse",
    "lift_to_total",
    "spin_connection",
    "spin_morphism",
    "clifford_curvature",
    "riemann_roch_sides",
]

# Gauss-Legendre order of the quadrature route of beta_wedge on [0, T0].
BETA_WEDGE_QUAD_ORDER = 96


@dataclass
class EuclideanBundle:
    """A metric bundle over a base chart, in an orthonormal frame.

    ``connection(base_point)`` returns the full d x d matrix of connection
    1-forms on the base chart with order-2 jets; entry [l][i] is
    (nabla e_{i+1}, e_{l+1}), so the matrix is skew.
    """

    rank: int
    base_dim: int
    connection: Callable[[ChartPoint], list[list[FormValue]]]

    @property
    def total_dim(self) -> int:
        return self.base_dim + self.rank

    def fiber_part(self, point) -> np.ndarray:
        return as_point(point).coords[..., self.base_dim :]

    @staticmethod
    def flat(rank: int, base_dim: int) -> "EuclideanBundle":
        return EuclideanBundle.from_lower_entries(rank, base_dim, lambda p: {})

    @staticmethod
    def from_lower_entries(rank, base_dim, entries) -> "EuclideanBundle":
        """Build the skew matrix from ``entries(point) -> {(i, j): w_ij}``.

        Keys are 1-based pairs with rank >= i > j >= 1, giving entry
        [i-1][j-1]; the transposed entries get the opposite sign.
        """

        def conn(p):
            zero = FormValue.zero(base_dim)
            mat = [[zero for _ in range(rank)] for _ in range(rank)]
            for (i, j), w in entries(p).items():
                if not rank >= i > j >= 1:
                    raise ValueError(
                        f"entry {(i, j)!r} is not strictly lower-triangular in 1..{rank}"
                    )
                mat[i - 1][j - 1] = w
                mat[j - 1][i - 1] = -w
            return mat

        return EuclideanBundle(rank, base_dim, conn)


def epsilon_d(rank: int) -> float:
    """The normalization (-1)^{d(d-1)/2} pi^{d/2}."""
    sign = -1.0 if (rank * (rank - 1) // 2) % 2 else 1.0
    return sign * np.pi ** (rank / 2.0)


def zero_section(bundle: EuclideanBundle) -> Callable[[ChartPoint], bool]:
    """The support predicate: whether a total-chart point lies on the zero section.

    At a row it returns the mask of the nodes that do.
    """
    return lambda p: np.linalg.norm(bundle.fiber_part(p), axis=-1) < 1e-12


def lift_to_total(fv: FormValue, base_dim: int, rank: int) -> FormValue:
    """Reinterpret a base-chart form on base x fiber (zero fiber derivatives).

    Raises ValueError for a form on another chart or one using Lambda(V)
    generators, whose labels would otherwise be read as fiber differentials.
    """
    if fv.chart_dim != base_dim or fv.fiber_dim != 0:
        raise ValueError(
            f"lift_to_total needs a plain form on the {base_dim}-chart; got chart "
            f"dimension {fv.chart_dim} with {fv.fiber_dim} fiber generators"
        )
    m = base_dim + rank
    out = {}
    for index, coeff in fv.terms.items():
        if isinstance(coeff, Jet):
            grad = np.zeros(m, dtype=complex)
            grad[:base_dim] = coeff.grad
            hess = None
            if coeff.hess is not None:
                hess = np.zeros((m, m), dtype=complex)
                hess[:base_dim, :base_dim] = coeff.hess
            coeff = Jet(coeff.value, grad, hess)
        out[index] = coeff
    return FormValue(m, out, validate=False)


def _half_curvature(w, d: int, m: int) -> FormValue:
    """(1/2) sum_{i<j} F[j,i] e_i e_j for a d x d connection matrix w on an m-chart."""
    out = FormValue.zero(m, d)
    for i in range(d):
        for j in range(i + 1, d):
            f = curvature_entry(w, j, i) * 0.5
            out = out + wedge(f, generator_form(m, d, (i + 1, j + 1)))
    return out


class _BaseFrame:
    """Quantities of one base point, shared by every fiber point over it.

    ``w`` (lifted connection), ``half_f`` = (1/2) sum F[j,i] e_i e_j and, built on
    first use, ``euler`` = Pf(half_f) / eps_d (the relative pair's first member)
    and ``primitive_plan``: the closed primitive's (k, J, P_I, gamma) terms.
    """

    def __init__(self, bundle: EuclideanBundle, base_coords):
        mb, d = bundle.base_dim, bundle.rank
        w_base = bundle.connection(ChartPoint(base_coords))
        self.w = [[lift_to_total(w_base[l][i], mb, d) for i in range(d)] for l in range(d)]
        self.half_f = _half_curvature(self.w, d, mb + d)

    @cached_property
    def euler(self) -> FormValue:
        # The lifted connection has no fiber differentials, so the terms
        # that carry one are zeros; only the base terms are kept.
        d = len(self.w)
        pf = pfaffian(self.half_f) * (1.0 / epsilon_d(d))
        mb = pf.chart_dim - d
        base_terms = {i: c for i, c in pf.terms.items() if not i or i[-1] <= mb}
        return FormValue(pf.chart_dim, base_terms, validate=False)

    @cached_property
    def primitive_plan(self) -> list[tuple[int, tuple[int, ...], FormValue, float]]:
        pexp = wedge_exp(self.half_f)
        all_idx = tuple(range(1, len(self.w) + 1))
        plan = []
        for k in all_idx:
            rest = tuple(i for i in all_idx if i != k)
            for jsize in range(len(all_idx)):
                for sub_j in combinations(rest, jsize):
                    sub_i = tuple(i for i in rest if i not in sub_j)
                    p_i = generator_coefficient(pexp, sub_i)
                    g = gamma_coefficient(k, sub_i, sub_j)
                    if p_i.terms and g != 0.0:
                        plan.append((k, sub_j, p_i, g))
        return plan


def _per_base_point(base_dim: int, build: Callable[[np.ndarray], object]):
    """``p -> build(base coordinates of p)``, kept for the last base point only.

    ``integrate_fiber`` visits all nodes over one base point in a row. The
    nodes of a row must share their base coordinates (ValueError otherwise).
    """
    last = [None, None]

    def at(p: ChartPoint):
        base = p.coords[..., :base_dim]
        if base.ndim > 1:
            if not (base == base[0]).all():
                raise ValueError(
                    "the nodes of a row do not share their base coordinates: "
                    f"{base.tolist()!r}"
                )
            base = base[0]
        key = base.tobytes()
        if last[0] != key:
            last[:] = key, build(base.copy())
        return last[1]

    return at


class _FrameData:
    """Per fiber point or row: ``xs``, r2 = |x|^2, eta_i = dx_i + sum_k x_k W[i,k]
    and ``eta_e`` = sum_i eta_i e_i; f_t = -t^2 |x|^2 + t eta_e + base.half_f.
    """

    __slots__ = ("base", "m", "d", "eta", "eta_e", "xs", "r2", "h")

    def __init__(self, bundle: EuclideanBundle, point, jet_order: int, base: _BaseFrame):
        if jet_order not in (0, 1):
            raise ValueError("frame jets are carried at order 0 or 1")
        p = as_point(point)
        mb, d, m = bundle.base_dim, bundle.rank, bundle.total_dim
        self.base = base
        self.m = m
        self.d = d
        if jet_order == 0:
            fiber = [complex(x) for x in p.coords[mb:]] if p.coords.ndim == 1 else list(
                p.coords[:, mb:].T.astype(complex)
            )
            one = 1.0
            self.r2 = sum(coeff_mul(x, x) for x in fiber)
        else:
            coords = jet_coordinates(p.coords, order=1)
            fiber = coords[mb:]
            one = jet_constant(1.0, m, 1)
            self.r2 = fiber[0] * fiber[0]
            for x in fiber[1:]:
                self.r2 = self.r2 + x * x
        self.xs = fiber
        self.eta = []
        for i in range(d):
            e = FormValue(m, {(mb + i + 1,): one}, validate=False)
            for k in range(d):
                e = e + base.w[i][k] * fiber[k]
            self.eta.append(e)
        self.eta_e = FormValue.zero(m, d)
        for i in range(d):
            self.eta_e = self.eta_e + wedge(self.eta[i], generator_form(m, d, (i + 1,)))
        h = np.real(jet_value(self.r2))
        self.h = h if isinstance(h, np.ndarray) else float(h)

    def generator(self, t: float) -> FormValue:
        """t sum_i eta_i e_i + (1/2) F: f_t without its scalar part -t^2 |x|^2."""
        return self.base.half_f + self.eta_e * t

    def f_exp(self, t: float) -> FormValue:
        return wedge_exp(self.generator(t), scalar_part=coeff_mul(-(t * t), self.r2))

    def x_element(self) -> FormValue:
        """sum_k x_k e_k, the fiber coordinates against the generators."""
        x = FormValue.zero(self.m, self.d)
        for k in range(self.d):
            x = x + generator_form(self.m, self.d, (k + 1,)) * self.xs[k]
        return x

    def c_value(self, t: float) -> FormValue:
        return berezin_T(self.f_exp(t))

    def eta_value(self, t: float) -> FormValue:
        return berezin_T(wedge(self.x_element(), self.f_exp(t))) * (-1.0)


def f_t_element(
    bundle: EuclideanBundle, point, t: float, jet_order: int = 1
) -> FormValue:
    """The quadratic element -t^2 |x|^2 + t sum_i eta_i e_i + (1/2) F.

    The scalar part sits at the empty index, so the covariant derivative
    and the fiber contraction can act on the whole element;
    (covariant_wedge - 2t contraction(x)) annihilates it.
    """
    frame = _frames(bundle, jet_order)(as_point(point))
    return frame.generator(t) + FormValue.scalar(-(t * t) * frame.r2, frame.m, frame.d)


def _base_frames(bundle: EuclideanBundle) -> Callable[[ChartPoint], _BaseFrame]:
    return _per_base_point(bundle.base_dim, lambda base: _BaseFrame(bundle, base))


def _frames(
    bundle: EuclideanBundle, jet_order: int, base_at=None
) -> Callable[[ChartPoint], _FrameData]:
    """``p -> _FrameData`` at p, reusing the _BaseFrame of the last base point."""
    base_at = base_at or _base_frames(bundle)
    return lambda p: _FrameData(bundle, p, jet_order, base_at(p))


def c_wedge(bundle: EuclideanBundle, t: float, jet_order: int = 0) -> FormField:
    """T(e^{f_t}), the unnormalized Gaussian-shaped representative."""
    frame_at = _frames(bundle, jet_order)
    return FormField(
        bundle.total_dim,
        lambda p: frame_at(p).c_value(t),
        name=f"c_wedge(t={t})",
    )


def eta_wedge(bundle: EuclideanBundle, t: float, jet_order: int = 0) -> FormField:
    """-T(x . e^{f_t}), the fiberwise transgression integrand."""
    frame_at = _frames(bundle, jet_order)
    return FormField(
        bundle.total_dim,
        lambda p: frame_at(p).eta_value(t),
        name=f"eta_wedge(t={t})",
    )


@lru_cache(maxsize=64)
def _gamma_half(n: int) -> float:
    """Gamma(n/2) for integer n >= 1, by the half-integer recursion."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return sqrt(np.pi)
    if n == 2:
        return 1.0
    return (n / 2.0 - 1.0) * _gamma_half(n - 2)


def gamma_coefficient(k: int, index_i: tuple[int, ...], index_j: tuple[int, ...]) -> float:
    """Weight of x_k eta_J ^ P_I / r^{|J|+1} in the closed-form primitive.

    P_I is the e_I coefficient of e^{(1/2) curvature element}. The value is
    -(1/2) (-1)^{|J|(|J|+1)/2} Gamma((|J|+1)/2) eps(I,J) eps({k}, I u J),
    and vanishes when the three index groups overlap.
    """
    nj = len(index_j)
    sign = -1.0 if (nj * (nj + 1) // 2) % 2 else 1.0
    e1 = epsilon_sign(tuple(index_i), tuple(index_j))
    if e1 == 0:
        return 0.0
    union = tuple(sorted(index_i + index_j))
    e2 = epsilon_sign((k,), union)
    if e2 == 0:
        return 0.0
    return -0.5 * sign * _gamma_half(nj + 1) * e1 * e2


def _power(x, n: int):
    """x**n; a float node array takes Python's float power node by node."""
    if isinstance(x, np.ndarray):
        return np.array([v**n for v in x.tolist()])
    return x**n


def _beta_closed(frame: _FrameData) -> FormValue:
    m = frame.m
    if isinstance(frame.r2, Jet):
        rinv = 1.0 / frame.r2.sqrt()
    elif isinstance(frame.r2, np.ndarray):
        rinv = 1.0 / np.sqrt(frame.r2.real)
    else:
        rinv = 1.0 / sqrt(float(np.real(frame.r2)))
    # eta_J only along the prefixes of the plan's J; a single index is eta_j.
    eta_sub: dict[tuple[int, ...], FormValue] = {(): FormValue.scalar(1.0, m)}

    def eta_product(sub: tuple[int, ...]) -> FormValue:
        if len(sub) == 1:
            return frame.eta[sub[0] - 1]
        if sub not in eta_sub:
            eta_sub[sub] = wedge(eta_product(sub[:-1]), frame.eta[sub[-1] - 1])
        return eta_sub[sub]

    total = FormValue.zero(m)
    for k, sub_j, p_i, g in frame.base.primitive_plan:
        radial = coeff_mul(frame.xs[k - 1], _power(rinv, len(sub_j) + 1))
        total = total + wedge(eta_product(sub_j), p_i) * coeff_mul(g, radial)
    return total


def beta_wedge(
    bundle: EuclideanBundle,
    method: str = "closed",
    jet_order: int = 0,
) -> FormField:
    """int_0^inf eta^t dt off the zero section.

    ``method="closed"`` assembles the Gamma-coefficient form;
    ``method="quadrature"`` integrates eta^t on [0, T0] with
    T0 = max(4, 8/r) by Gauss-Legendre of order BETA_WEDGE_QUAD_ORDER, an
    independent route.
    """
    if method not in ("closed", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    return _beta_field(bundle, method, _frames(bundle, jet_order))


def _beta_field(bundle: EuclideanBundle, method: str, frame_at) -> FormField:
    def evaluate(p: ChartPoint) -> FormValue:
        frame = frame_at(p)
        positive = frame.h > 0.0
        if not np.all(positive):
            if isinstance(frame.h, float):
                raise ValueError(f"beta_wedge needs |x|^2 > 0; got {frame.h!r}")
            j = int(np.argmin(positive))
            raise ValueError(
                f"beta_wedge needs |x|^2 > 0; got {float(frame.h[j])!r} at node {j}"
            )
        if method == "closed":
            return _beta_closed(frame)
        if p.coords.ndim > 1:
            raise ValueError("beta_wedge's quadrature route takes single points, not rows")
        t_hi = tail_cutoff(frame.h, 0.0)
        ts, ws = gauss_legendre(BETA_WEDGE_QUAD_ORDER, 0.0, t_hi)
        total = FormValue.zero(frame.m)
        for t, weight in zip(ts, ws):
            total = total + frame.eta_value(float(t)) * weight
        return total

    on_zero_section = zero_section(bundle)
    return FormField(
        bundle.total_dim,
        evaluate,
        domain=lambda p: np.logical_not(on_zero_section(p)),
        name=f"beta_wedge[{method}]",
    )


def thom_rel(bundle: EuclideanBundle, jet_order: int = 0) -> RelativeCochain:
    """The relative pair (Pfaffian form, fiberwise primitive), normalized.

    The first member is the Euler form of the base, lifted to the total
    chart: it does not depend on the fiber coordinates. It is the Pfaffian
    of the same base-point curvature the primitive uses, so the connection
    is read once per base point.
    """
    scale = 1.0 / epsilon_d(bundle.rank)
    base_at = _base_frames(bundle)
    alpha = FormField(bundle.total_dim, lambda p: base_at(p).euler, name="thom_alpha")
    raw = _beta_field(bundle, "closed", _frames(bundle, jet_order, base_at))
    beta = FormField(
        bundle.total_dim,
        lambda p: raw(p) * scale,
        domain=raw.domain,
        name="thom_beta",
    )
    return RelativeCochain(alpha=alpha, beta=beta)


def thom_mq(bundle: EuclideanBundle, t: float = 1.0, jet_order: int = 0) -> FormField:
    """The Gaussian-shaped representative (1/eps_d) T(e^{f_t})."""
    scale = 1.0 / epsilon_d(bundle.rank)
    inner = c_wedge(bundle, t, jet_order=jet_order)
    return FormField(
        bundle.total_dim, lambda p: inner(p) * scale, name=f"thom_mq(t={t})"
    )


def thom_c(bundle: EuclideanBundle, chi: FormField, jet_order: int = 0) -> FormField:
    """Compactly supported representative chi alpha + d chi ^ beta."""
    return p_chi(thom_rel(bundle, jet_order=jet_order), chi)


def euler_form(bundle: EuclideanBundle) -> FormField:
    """The Pfaffian representative of the Euler class, on the base chart.

    Equals the zero-section restriction of the relative pair's first member;
    for the 2-sphere's tangent frame its base integral is 2.
    """
    mb, d = bundle.base_dim, bundle.rank
    scale = 1.0 / epsilon_d(d)

    def evaluate(p: ChartPoint) -> FormValue:
        return pfaffian(_half_curvature(bundle.connection(p), d, mb)) * scale

    return FormField(mb, evaluate, name="euler")


# -- the multiplicative genus --------------------------------------------------


@lru_cache(maxsize=8)
def log_s_coefficients(n_terms: int) -> tuple[float, ...]:
    """Taylor coefficients of log(sinh(x/2)/(x/2)) in u = x^2.

    Built by exact series arithmetic: sinh(x/2)/(x/2) = sum_k u^k/(4^k (2k+1)!)
    composed with log(1+w) = sum_j (-1)^{j+1} w^j / j, truncated at u^n_terms.
    The leading terms come out to u/24 - u^2/2880 + u^3/181440.
    """
    if n_terms < 1:
        raise ValueError("need at least one term")
    s = [Fraction(0)] * (n_terms + 1)
    fact = Fraction(1)
    for k in range(n_terms + 1):
        if k > 0:
            fact *= Fraction(4 * (2 * k) * (2 * k + 1))
        s[k] = 1 / fact
    w = s[:]
    w[0] = Fraction(0)

    def series_mul(a, b):
        out = [Fraction(0)] * (n_terms + 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                if i + j > n_terms:
                    break
                out[i + j] += ai * bj
        return out

    log_s = [Fraction(0)] * (n_terms + 1)
    power = [Fraction(1)] + [Fraction(0)] * n_terms
    for j in range(1, n_terms + 1):
        power = series_mul(power, w)
        sign = Fraction(1, j) if j % 2 else Fraction(-1, j)
        for idx in range(n_terms + 1):
            log_s[idx] += sign * power[idx]
    return tuple(float(c) for c in log_s[1:])


def _tr_log_s(fmat: list[list[FormValue]], m: int) -> FormValue:
    d = len(fmat)

    def mat_wedge(a, b):
        return [
            [
                sum(
                    (wedge(a[i][k], b[k][j]) for k in range(d)),
                    FormValue.zero(m),
                )
                for j in range(d)
            ]
            for i in range(d)
        ]

    def trace(a):
        return sum((a[i][i] for i in range(d)), FormValue.zero(m))

    total = FormValue.zero(m)
    power = None
    f2 = mat_wedge(fmat, fmat)
    for coeff in log_s_coefficients(max(1, m // 4)):
        power = f2 if power is None else mat_wedge(power, f2)
        tr = trace(power)
        if not tr.prune(0.0).terms:
            break
        total = total + tr * coeff
    return total


def _a_hat_field(bundle: EuclideanBundle, sign: float, name: str) -> FormField:
    mb = bundle.base_dim

    def evaluate(p: ChartPoint) -> FormValue:
        w = bundle.connection(p)
        d = bundle.rank
        fmat = [[curvature_entry(w, l, i) for i in range(d)] for l in range(d)]
        return wedge_exp(_tr_log_s(fmat, mb) * sign)

    return FormField(mb, evaluate, name=name)


def a_hat_genus(bundle: EuclideanBundle) -> FormField:
    """exp(-(1/2) tr log s(F)) with s(x) = sinh(x/2)/(x/2), on the base."""
    return _a_hat_field(bundle, -0.5, "a_hat")


def a_hat_inverse(bundle: EuclideanBundle) -> FormField:
    return _a_hat_field(bundle, 0.5, "a_hat_inverse")


# -- the rank-2 spinor bridge --------------------------------------------------


def spin_connection(
    bundle: EuclideanBundle, rep: SpinorRep2 | None = None
) -> SuperConnectionData:
    """(1/2) W[2,1] c_1 c_2 in the spinor representation (rank 2 only)."""
    if bundle.rank != 2:
        raise ValueError("the spinor bridge is implemented for rank 2")
    rep = rep or default_spinor_rep()
    mb = bundle.base_dim
    m = bundle.total_dim

    def omega(point):
        p = as_point(point)
        w = bundle.connection(ChartPoint(p.coords[:mb]))
        entry = lift_to_total(w[1][0], mb, 2) * 0.5
        mat = spinor_rep(wedge(entry, generator_form(m, 2, (1, 2))), rep, order=2)
        mat.components.pop((), None)
        return mat

    return SuperConnectionData(omega)


def spin_morphism(bundle: EuclideanBundle) -> MorphismBundle:
    """-i c(x) as a graded morphism: the sigma block is x_1 + i x_2 (fiber)."""
    if bundle.rank != 2:
        raise ValueError("the spinor bridge is implemented for rank 2")
    mb = bundle.base_dim
    m = bundle.total_dim

    def sigma(point):
        p = as_point(point)
        out = np.zeros((1 + m + m * m, 1, 1), dtype=complex)
        out[0, 0, 0] = p.coords[mb] + 1j * p.coords[mb + 1]
        out[1 + mb, 0, 0] = 1.0
        out[1 + mb + 1, 0, 0] = 1j
        return out

    return MorphismBundle(
        split=ParitySplit(1, 1),
        chart_dim=m,
        sigma=sigma,
        support=zero_section(bundle),
    )


def clifford_curvature(bundle: EuclideanBundle, rep: SpinorRep2 | None = None):
    """(1/2) F[2,1] c_1 c_2 in the spinor representation, on the base chart.

    Returns ``point -> SuperMatrixForm``; equals the curvature of the lifted
    connection, which the rank-2 case makes immediate (the quadratic term of
    a single 1-form entry wedges to zero).
    """
    if bundle.rank != 2:
        raise ValueError("the spinor bridge is implemented for rank 2")
    rep = rep or default_spinor_rep()
    mb = bundle.base_dim

    def evaluate(point):
        p = as_point(point)
        w = bundle.connection(ChartPoint(p.coords[:mb]))
        half_f = curvature_entry(w, 1, 0) * 0.5
        mat = spinor_rep(wedge(half_f, generator_form(mb, 2, (1, 2))), rep, order=1)
        mat.components.pop((), None)
        return mat

    return evaluate


def _genus_weighted(bundle: EuclideanBundle, inner: FormField, scale: complex) -> FormField:
    """scale * A-hat^{-1} (lifted from the base) wedge a total-chart field."""
    ahat_inv = a_hat_inverse(bundle)
    mb, d = bundle.base_dim, bundle.rank

    def evaluate(p: ChartPoint) -> FormValue:
        genus = lift_to_total(ahat_inv(ChartPoint(p.coords[:mb])), mb, d)
        return wedge(genus, inner(p)) * scale

    return FormField(bundle.total_dim, evaluate, domain=inner.domain, name="genus_weighted")


def riemann_roch_sides(
    bundle: EuclideanBundle,
    t: float,
    rep: SpinorRep2 | None = None,
    jet_order: int = 0,
) -> tuple[FormField, FormField]:
    """Both sides of Ch(sigma_V, spin connection, t) = (-2i) A-hat^{-1} C^t."""
    lhs = chern_form(
        spin_morphism(bundle), spin_connection(bundle, rep), t, jet_order=jet_order
    )
    rhs = _genus_weighted(bundle, c_wedge(bundle, t, jet_order=jet_order), -2j)
    return lhs, rhs
