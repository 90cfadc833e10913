"""Named verification scenarios for the CLI harness.

Each scenario instantiates concrete geometric data (a morphism over a
chart, a metric bundle, random graded matrices), runs its checks against
closed-form target values, and reports absolute and relative deviations.
Sample points are drawn from seeded generators over regions that keep a
safe margin from the supports, so every run with the same seed and config
sees the same points.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import cos, factorial, isfinite, pi, sin
from numbers import Integral, Real
from typing import Callable, NamedTuple

import numpy as np

from .clifford_berezin import (
    clifford_exp_dim2,
    default_spinor_rep,
    generator_form,
    spinor_rep,
)
from .exterior import (
    ChartPoint,
    FormField,
    FormValue,
    as_point,
    differentiate_value,
    partition_pair,
    smooth_cutoff,
    wedge,
)
from .jets import jet_coordinates, smooth_step
from .quillen import (
    MorphismBundle,
    SuperConnectionData,
    b_forms,
    beta_form,
    ch_rel,
    ch_sup_rep,
    chern_form,
    eta_form,
    tensor_connection,
    tensor_morphism,
)
from .relative import integrate_compact, integrate_fiber, p_chi, product_phi
from .report import CheckResult
from .superlinalg import (
    HermitianEndo,
    ParitySplit,
    SuperMatrixForm,
    graded_exp,
    graded_norm,
    smallest_eigenvalue,
    volterra_exp,
)
from .thom import (
    EuclideanBundle,
    _genus_weighted,
    beta_wedge,
    c_wedge,
    eta_wedge,
    euler_form,
    riemann_roch_sides,
    spin_connection,
    spin_morphism,
    thom_c,
    thom_mq,
    thom_rel,
)

__all__ = ["ScenarioConfig", "SCENARIO_NAMES", "run_scenario", "scenario_is_gating"]

TWO_PI_I = 2j * np.pi


@dataclass
class ScenarioConfig:
    """Knobs shared by all scenarios.

    ``quad_order`` overrides the per-check default order of the big
    compact-box and compact-fiber integrals only; the Gaussian and
    transgression quadratures keep their tuned defaults. ``tol_scale``
    multiplies every tolerance (useful for exploring margins). A seed that
    is not a non-negative integer, an order that is not a positive integer,
    or a scale that is not a positive finite number raises ValueError.
    """

    seed: int = 0
    tol_scale: float = 1.0
    quad_order: int | None = None

    def __post_init__(self):
        if not (isinstance(self.seed, Integral) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.quad_order is not None and not (
            isinstance(self.quad_order, Integral) and self.quad_order > 0
        ):
            raise ValueError(f"quad_order must be a positive integer, got {self.quad_order!r}")
        if not (
            isinstance(self.tol_scale, Real) and isfinite(self.tol_scale) and self.tol_scale > 0.0
        ):
            raise ValueError(f"tol_scale must be a positive finite number, got {self.tol_scale!r}")


class _Outcome(NamedTuple):
    lhs: str
    rhs: str
    abs_err: float
    rel_err: float
    tol: float
    gate: str


def _rng(config: ScenarioConfig, tag: int) -> np.random.Generator:
    return np.random.default_rng([config.seed, tag])


def _rel(abs_err: float, ref: float) -> float:
    return abs_err / max(ref, 1e-300)


def _value_outcome(value: complex, target: complex, tol: float) -> _Outcome:
    value = complex(value)
    abs_err = abs(value - target)
    return _Outcome(
        lhs=f"{value:.9g}",
        rhs=f"{target:.9g}",
        abs_err=abs_err,
        rel_err=_rel(abs_err, abs(target)),
        tol=tol,
        gate="rel",
    )


def _sweep_outcome(
    deviations: list[tuple[float, float]],
    lhs: str,
    rhs: str,
    tol: float,
    gate: str,
) -> _Outcome:
    """Aggregate per-point (abs deviation, reference magnitude) pairs."""
    abs_err = max((d for d, _ in deviations), default=0.0)
    rel_err = max((_rel(d, r) for d, r in deviations if r > 0.0), default=0.0)
    return _Outcome(lhs, rhs, abs_err, rel_err, tol, gate)


# -- Bott morphism on the plane -------------------------------------------------


def bott_morphism() -> MorphismBundle:
    """sigma(z) = z on the chart (x, y), rank (1|1); sigma and its support take rows."""

    def sigma(point: ChartPoint) -> np.ndarray:
        c = point.coords
        out = np.zeros(c.shape[:-1] + (7, 1, 1), dtype=complex)
        out.real[..., 0, 0, 0] = c[..., 0]
        out.imag[..., 0, 0, 0] = c[..., 1]
        out[..., 1, 0, 0] = 1.0
        out[..., 2, 0, 0] = 1j
        return out

    def support(p):
        c = as_point(p).coords
        return np.hypot(c[..., 0], c[..., 1]) < 1e-12

    return MorphismBundle(
        split=ParitySplit(1, 1),
        chart_dim=2,
        sigma=sigma,
        support=support,
    )


def _disk_points(rng: np.random.Generator, n: int, r_lo: float, r_hi: float):
    r = rng.uniform(r_lo, r_hi, n)
    phase = rng.uniform(0.0, 2.0 * pi, n)
    return np.stack([r * np.cos(phase), r * np.sin(phase)], axis=1)


def _bott_checks(config: ScenarioConfig):
    trivial = SuperConnectionData(None)

    def beta_display():
        b = bott_morphism()
        beta = beta_form(b, trivial)
        pts = _disk_points(_rng(config, 1), 20, 0.5, 3.0)
        devs = []
        for x, y in pts:
            r2 = x * x + y * y
            display = FormValue(2, {(1,): 1j * y / r2, (2,): -1j * x / r2})
            got = beta(ChartPoint([x, y]))
            devs.append(((got - display).max_abs(), display.max_abs()))
        return _sweep_outcome(devs, "beta by quadrature", "i(y dx - x dy)/r^2", 1e-8, "rel")

    def integral_compact():
        b = bott_morphism()
        chi = smooth_cutoff(2, 0.36, 4.41)
        field = ch_sup_rep(b, trivial, chi)
        order = config.quad_order or 80
        val = integrate_compact(field, [(-2.2, 2.2), (-2.2, 2.2)], order=order)
        return _value_outcome(val, TWO_PI_I, 1e-6)

    def integral_gaussian():
        b = bott_morphism()
        field = chern_form(b, trivial, 1.0)
        val = integrate_fiber(field, (1, 2), mode="gaussian", order=32).coefficient(())
        return _value_outcome(complex(val), TWO_PI_I, 1e-6)

    return [
        ("bott-beta-display", beta_display),
        ("bott-integral-compact", integral_compact),
        ("bott-integral-gaussian", integral_gaussian),
    ]


# -- winding morphism on the cylinder chart -------------------------------------


def cylinder_morphism() -> MorphismBundle:
    """sigma(theta, xi) = (1 - w) + w e^{i theta}, w the smooth step in xi.

    Unitary with winding one for xi >= 1, constant 1 for xi <= 0; the single
    non-invertible point of the chart [0, 2pi] x R is (pi, 1/2).
    """

    def sigma(point: ChartPoint) -> np.ndarray:
        jets = jet_coordinates(point.coords, order=2)
        theta, xi = jets
        w = smooth_step(xi)
        val = (1.0 - w) + w * (1j * theta).exp()
        out = np.zeros((7, 1, 1), dtype=complex)
        out[0, 0, 0] = val.value
        out[1:3, 0, 0] = val.grad
        out[3:, 0, 0] = val.hess.reshape(-1)
        return out

    def support(p):
        c = as_point(p).coords
        w = smooth_step(c[..., 1])
        return np.abs((1.0 - w) + w * np.exp(1j * c[..., 0])) < 1e-12

    return MorphismBundle(
        split=ParitySplit(1, 1),
        chart_dim=2,
        sigma=sigma,
        support=support,
    )


def _cylinder_checks(config: ScenarioConfig):
    trivial = SuperConnectionData(None)

    def beta_branches():
        b = cylinder_morphism()
        beta = beta_form(b, trivial)
        rng = _rng(config, 2)
        devs = []
        winding = FormValue(2, {(1,): -1j})
        for _ in range(10):
            p = ChartPoint([rng.uniform(0.3, 2 * pi - 0.3), rng.uniform(1.2, 2.4)])
            devs.append(((beta(p) - winding).max_abs(), 1.0))
        for _ in range(10):
            p = ChartPoint([rng.uniform(0.3, 2 * pi - 0.3), rng.uniform(-2.4, -0.2)])
            devs.append((beta(p).max_abs(), 1.0))
        return _sweep_outcome(devs, "beta on both flat branches", "-i dtheta / 0", 1e-8, "abs")

    def integral_compact():
        b = cylinder_morphism()
        chi = smooth_cutoff(2, 1.0, 7.0225, dims=(2,))
        field = ch_sup_rep(b, trivial, chi)
        order = config.quad_order or 80
        val = integrate_compact(field, [(0.0, 2 * pi), (-2.7, 2.7)], order=order)
        return _value_outcome(val, -TWO_PI_I, 1e-6)

    return [
        ("cylinder-beta-branches", beta_branches),
        ("cylinder-integral-compact", integral_compact),
    ]


# -- two Bott factors on the 4-chart --------------------------------------------


def plane_factor(which: int) -> MorphismBundle:
    """sigma = z_k on the chart (x1, y1, x2, y2), k = 1 or 2."""
    off = 2 * (which - 1)

    def sigma(point: ChartPoint) -> np.ndarray:
        c = point.coords
        out = np.zeros((21, 1, 1), dtype=complex)
        out[0, 0, 0] = complex(c[off], c[off + 1])
        out[1 + off, 0, 0] = 1.0
        out[2 + off, 0, 0] = 1j
        return out

    def support(p):
        c = as_point(p).coords
        return np.hypot(c[..., off], c[..., off + 1]) < 1e-12

    return MorphismBundle(
        split=ParitySplit(1, 1),
        chart_dim=4,
        sigma=sigma,
        support=support,
    )


def radial_selector() -> FormField:
    """|z1|^2 / (|z1|^2 + |z2|^2) with order-2 jets, for the partition pair."""

    def evaluate(p: ChartPoint) -> FormValue:
        x1, y1, x2, y2 = jet_coordinates(p.coords, order=2)
        a1 = x1 * x1 + y1 * y1
        a2 = x2 * x2 + y2 * y2
        return FormValue(4, {(): a1 / (a1 + a2)})

    return FormField(4, evaluate, name="radial_selector")


def _pair_omega(p: ChartPoint, which: int) -> FormValue:
    """omega_k = conj(z_k) dz_k - z_k d conj(z_k) = 2i (x_k dy_k - y_k dx_k)."""
    off = 2 * (which - 1)
    x, y = p.coords[off], p.coords[off + 1]
    return FormValue(4, {(off + 1,): -2j * y, (off + 2,): 2j * x})


def _pair_area(which: int) -> FormValue:
    """d conj(z_k) ^ dz_k = 2i dx_k ^ dy_k."""
    off = 2 * (which - 1)
    return FormValue(4, {(off + 1, off + 2): 2j})


def _c2_points(rng: np.random.Generator, n: int) -> list[ChartPoint]:
    pts = []
    for _ in range(n):
        r = rng.uniform(0.5, 1.6, 2)
        phase = rng.uniform(0.0, 2.0 * pi, 2)
        pts.append(
            ChartPoint(
                [
                    r[0] * cos(phase[0]),
                    r[0] * sin(phase[0]),
                    r[1] * cos(phase[1]),
                    r[1] * sin(phase[1]),
                ]
            )
        )
    return pts


def _c2_checks(config: ScenarioConfig):
    trivial = SuperConnectionData(None)

    def beta12_display():
        b1, b2 = plane_factor(1), plane_factor(2)
        prod = tensor_morphism(b1, b2)
        conn = tensor_connection(b1, b2, trivial, trivial)
        beta12 = beta_form(prod, conn)
        devs = []
        for p in _c2_points(_rng(config, 3), 20):
            a1 = p.coords[0] ** 2 + p.coords[1] ** 2
            a2 = p.coords[2] ** 2 + p.coords[3] ** 2
            s = a1 + a2
            display = (
                wedge(_pair_omega(p, 1), _pair_area(2))
                + wedge(_pair_omega(p, 2), _pair_area(1))
            ) * (-0.5 / (s * s))
            devs.append(((beta12(p) - display).max_abs(), display.max_abs()))
        return _sweep_outcome(
            devs, "product beta by quadrature", "-(w1 D2 + w2 D1)/(2 S^2)", 1e-7, "rel"
        )

    def b_forms_display():
        b1, b2 = plane_factor(1), plane_factor(2)
        phis = partition_pair(radial_selector())
        bf1, bf2 = b_forms(b1, trivial, b2, trivial, phis, jet_order=0)
        devs = []
        for p in _c2_points(_rng(config, 4), 20):
            a1 = p.coords[0] ** 2 + p.coords[1] ** 2
            a2 = p.coords[2] ** 2 + p.coords[3] ** 2
            s = a1 + a2
            ww = wedge(_pair_omega(p, 1), _pair_omega(p, 2))
            phi1 = complex(phis[0](p).value(()))
            phi2 = complex(phis[1](p).value(()))
            d1 = ww * (phi1 / (4.0 * a1 * s))
            d2 = ww * (phi2 / (4.0 * a2 * s))
            devs.append(((bf1(p) - d1).max_abs(), max(d1.max_abs(), 1.0)))
            devs.append(((bf2(p) - d2).max_abs(), max(d2.max_abs(), 1.0)))
        return _sweep_outcome(
            devs, "double-integral forms", "phi_k w1 w2 / (4 a_k S)", 1e-6, "rel"
        )

    def multiplicativity_witness():
        b1, b2 = plane_factor(1), plane_factor(2)
        prod = tensor_morphism(b1, b2)
        conn = tensor_connection(b1, b2, trivial, trivial)
        beta12 = beta_form(prod, conn)
        phis = partition_pair(radial_selector())
        pair1 = ch_rel(b1, trivial)
        pair2 = ch_rel(b2, trivial)
        beta_prod = product_phi(pair1, pair2, phis).beta
        bf1, bf2 = b_forms(b1, trivial, b2, trivial, phis, jet_order=1)
        devs = []
        for p in _c2_points(_rng(config, 5), 20):
            d_b = differentiate_value(bf1(p) - bf2(p))
            witness = beta12(p) - beta_prod(p) - d_b
            devs.append((witness.max_abs(), 1.0))
        return _sweep_outcome(
            devs, "beta12 - beta_prod - d(B1 - B2)", "0", 1e-6, "abs"
        )

    return [
        ("product-beta-display", beta12_display),
        ("product-b-forms-display", b_forms_display),
        ("product-multiplicativity-witness", multiplicativity_witness),
    ]


# -- rank-2 metric bundle over the torus chart ----------------------------------


def torus_bundle(lam: float = 0.3) -> EuclideanBundle:
    """Rank-2 bundle over (theta1, theta2) with connection lam cos(theta1) dtheta2."""

    def entries(p: ChartPoint):
        th = jet_coordinates(p.coords, order=2)
        return {(2, 1): FormValue(2, {(2,): th[0].cos() * lam})}

    return EuclideanBundle.from_lower_entries(2, 2, entries)


def _torus_base_points(rng: np.random.Generator, n: int) -> list[ChartPoint]:
    return [ChartPoint(rng.uniform(-pi + 0.3, pi - 0.3, 2)) for _ in range(n)]


def _total_points(rng: np.random.Generator, n: int, r_lo=0.4, r_hi=2.0):
    pts = []
    for _ in range(n):
        base = rng.uniform(-pi + 0.3, pi - 0.3, 2)
        r = rng.uniform(r_lo, r_hi)
        phase = rng.uniform(0.0, 2.0 * pi)
        pts.append(ChartPoint([*base, r * cos(phase), r * sin(phase)]))
    return pts


def _rank2_display_parts(p: ChartPoint, lam: float):
    th1 = p.coords[0]
    x1, x2 = p.coords[2], p.coords[3]
    eta_c = lam * cos(th1)
    d_eta = FormValue(4, {(1, 2): -lam * sin(th1)})
    eta1 = FormValue(4, {(3,): 1.0, (2,): -x2 * eta_c})
    eta2 = FormValue(4, {(4,): 1.0, (2,): x1 * eta_c})
    cross = eta2 * x1 - eta1 * x2
    return d_eta, eta1, eta2, cross


def _rank2_checks(config: ScenarioConfig):
    lam = 0.3
    bundle = torus_bundle(lam)

    def fiber_integral_compact():
        chi = smooth_cutoff(4, 0.1225, 4.41, dims=(3, 4))
        field = thom_c(bundle, chi)
        order = config.quad_order or 80
        devs = []
        value = None
        for bp in _torus_base_points(_rng(config, 6), 10):
            got = integrate_fiber(
                field, (3, 4), mode="compact", base_point=bp, order=order, half_width=2.2
            ).coefficient(())
            value = got
            devs.append((abs(got - 1.0), 1.0))
        return _sweep_outcome(devs, f"last {complex(value):.9g}", "1", 1e-6, "abs")

    def fiber_integral_gaussian():
        field = thom_mq(bundle)
        devs = []
        value = None
        for bp in _torus_base_points(_rng(config, 6), 10):
            got = integrate_fiber(
                field, (3, 4), mode="gaussian", base_point=bp, order=32
            ).coefficient(())
            value = got
            devs.append((abs(got - 1.0), 1.0))
        return _sweep_outcome(devs, f"last {complex(value):.9g}", "1", 1e-6, "abs")

    def pushforward_relative():
        chi = smooth_cutoff(4, 0.25, 4.0, dims=(3, 4))
        field = p_chi(thom_rel(bundle), chi)
        order = config.quad_order or 80
        devs = []
        value = None
        for bp in _torus_base_points(_rng(config, 16), 2):
            got = integrate_fiber(
                field, (3, 4), mode="compact", base_point=bp, order=order, half_width=2.0
            ).coefficient(())
            value = got
            devs.append((abs(got - 1.0), 1.0))
        return _sweep_outcome(devs, f"last {complex(value):.9g}", "1", 1e-6, "abs")

    def closed_form_displays():
        devs = []
        beta = beta_wedge(bundle, method="closed")
        for p in _total_points(_rng(config, 7), 20):
            d_eta, eta1, eta2, cross = _rank2_display_parts(p, lam)
            r2 = p.coords[2] ** 2 + p.coords[3] ** 2
            beta_disp = cross * (0.5 / r2)
            devs.append(((beta(p) - beta_disp).max_abs(), beta_disp.max_abs()))
            for t in (0.0, 0.5, 1.0, 2.0):
                decay = float(np.exp(-(t * t) * r2))
                c_disp = (d_eta * 0.5 - wedge(eta1, eta2) * (t * t)) * decay
                eta_disp = cross * (t * decay)
                devs.append(
                    ((c_wedge(bundle, t)(p) - c_disp).max_abs(), c_disp.max_abs())
                )
                devs.append(
                    ((eta_wedge(bundle, t)(p) - eta_disp).max_abs(), eta_disp.max_abs())
                )
        return _sweep_outcome(
            devs, "C/eta/beta engine values", "rank-2 closed forms", 1e-9, "rel"
        )

    def gamma_vs_quadrature():
        closed = beta_wedge(bundle, method="closed")
        quad = beta_wedge(bundle, method="quadrature")
        devs = []
        for p in _total_points(_rng(config, 8), 20):
            want = closed(p)
            devs.append(((quad(p) - want).max_abs(), want.max_abs()))
        return _sweep_outcome(
            devs, "quadrature primitive", "Gamma-coefficient form", 1e-8, "rel"
        )

    return [
        ("thom-fiber-integral-compact", fiber_integral_compact),
        ("thom-fiber-integral-gaussian", fiber_integral_gaussian),
        ("thom-pushforward-relative", pushforward_relative),
        ("rank2-closed-forms", closed_form_displays),
        ("rank2-gamma-closed-form", gamma_vs_quadrature),
    ]


def _riemann_roch_checks(config: ScenarioConfig):
    lam = 0.3
    bundle = torus_bundle(lam)

    def character_identity():
        morphism = spin_morphism(bundle)
        connection = spin_connection(bundle)
        pts = _total_points(_rng(config, 9), 20)
        ch_devs, eta_devs = [], []
        for t in (0.0, 1.0, 2.0):
            ch_l, ch_r = riemann_roch_sides(bundle, t)
            eta_l = eta_form(morphism, connection, t)
            eta_r = _genus_weighted(bundle, eta_wedge(bundle, t), -2j)
            for p in pts:
                ch_devs.append(((ch_l(p) - ch_r(p)).max_abs(), 1.0))
                eta_devs.append(((eta_l(p) - eta_r(p)).max_abs(), 1.0))
        return [
            _sweep_outcome(ch_devs, "character vs weighted Gaussian form", "0", 1e-9, "abs"),
            _sweep_outcome(eta_devs, "transgression vs weighted form", "0", 1e-9, "abs"),
        ]

    def clifford_exp_agreement():
        rng = _rng(config, 10)
        rep = default_spinor_rep()
        devs = []

        def cnum():
            return complex(rng.normal(0, 0.7), rng.normal(0, 0.7))

        for _ in range(20):
            a1 = FormValue(2, {(1,): cnum(), (2,): cnum()})
            a2 = FormValue(2, {(1,): cnum(), (2,): cnum()})
            b = FormValue(2, {(): 0.5 * cnum(), (1, 2): cnum()})
            closed = spinor_rep(clifford_exp_dim2(a1, a2, b), rep)
            element = (
                wedge(a1, generator_form(2, 2, (1,)))
                + wedge(a2, generator_form(2, 2, (2,)))
                + wedge(b, generator_form(2, 2, (1, 2)))
            )
            direct = graded_exp(spinor_rep(element, rep))
            devs.append((graded_norm(closed - direct), 1.0))
        return _sweep_outcome(
            devs, "dim-2 closed-form exponential", "matrix exponential", 1e-9, "abs"
        )

    # character_identity computes both outcomes in one sweep; wrap lazily so
    # the timer on the first check carries the shared cost.
    shared: dict[str, _Outcome] = {}

    def ch_check():
        if not shared:
            ch_out, eta_out = character_identity()
            shared["ch"] = ch_out
            shared["eta"] = eta_out
        return shared["ch"]

    def eta_check():
        if not shared:
            ch_check()
        return shared["eta"]

    return [
        ("riemann-roch-character", ch_check),
        ("riemann-roch-transgression", eta_check),
        ("clifford-exp-closed-form", clifford_exp_agreement),
    ]


# -- random graded matrices -----------------------------------------------------


def _all_indices(m: int, degree_min: int) -> list[tuple[int, ...]]:
    from itertools import combinations

    out: list[tuple[int, ...]] = []
    for k in range(degree_min, m + 1):
        out.extend(combinations(range(1, m + 1), k))
    return out


def _random_instance(rng: np.random.Generator):
    m = int(rng.integers(1, 4))
    p = int(rng.integers(1, 3))
    q = int(rng.integers(1, 3))
    n = p + q
    g = rng.normal(0, 1, (n, n)) + 1j * rng.normal(0, 1, (n, n))
    h = 0.4 * (g + g.conj().T)
    split = ParitySplit(p, q)
    comps: dict[tuple[int, ...], np.ndarray] = {}
    for index in _all_indices(m, 1):
        if rng.random() < 0.35:
            continue
        block = rng.normal(0, 0.5, (1, n, n)) + 1j * rng.normal(0, 0.5, (1, n, n))
        comps[index] = block
    r = SuperMatrixForm(split, m, comps)
    return m, split, h, r


def _appendix_checks(config: ScenarioConfig):
    def volterra_agreement():
        rng = _rng(config, 11)
        devs = []
        for _ in range(200):
            m, split, h, r = _random_instance(rng)
            full = SuperMatrixForm(
                split, m, {(): h[None, :, :], **{i: c for i, c in r.components.items()}}
            )
            via_simplex = volterra_exp(HermitianEndo(h), r, quad_order=12)
            via_embedding = graded_exp(full)
            devs.append((graded_norm(via_simplex - via_embedding), 1.0))
        return _sweep_outcome(
            devs, "simplex-series exponential", "regular-representation exponential", 1e-8, "abs"
        )

    def norm_bound():
        rng = _rng(config, 12)
        worst = -np.inf
        for _ in range(1000):
            m, split, h, r = _random_instance(rng)
            full = SuperMatrixForm(
                split,
                m,
                {(): -h[None, :, :], **{i: -c for i, c in r.components.items()}},
            )
            lhs = graded_norm(graded_exp(full))
            t = graded_norm(r)
            poly = sum(t**k / factorial(k) for k in range(m + 1))
            bound = float(np.exp(-smallest_eigenvalue(h))) * poly
            worst = max(worst, lhs / bound - (1.0 + 1e-9))
        return _Outcome(
            lhs=f"max ratio excess {worst:.3e}",
            rhs="<= 0",
            abs_err=worst,
            rel_err=worst,
            tol=0.0,
            gate="abs",
        )

    return [
        ("volterra-agreement", volterra_agreement),
        ("norm-bound", norm_bound),
    ]


# -- sphere tangent frame -------------------------------------------------------


def sphere_bundle() -> EuclideanBundle:
    """Tangent frame of the round 2-sphere on the (theta, phi) chart."""

    def entries(p: ChartPoint):
        th = jet_coordinates(p.coords, order=2)
        return {(2, 1): FormValue(2, {(2,): th[0].cos()})}

    return EuclideanBundle.from_lower_entries(2, 2, entries)


def _sphere_checks(config: ScenarioConfig):
    def euler_number():
        field = euler_form(sphere_bundle())
        order = config.quad_order or 24
        val = integrate_compact(field, [(0.0, pi), (0.0, 2 * pi)], order=order)
        return _value_outcome(val, 2.0 + 0.0j, 1e-4)

    return [("sphere-euler-number", euler_number)]


# -- registry -------------------------------------------------------------------

_BUILDERS: dict[str, tuple[Callable, bool]] = {
    "bott_r2": (_bott_checks, True),
    "tstar_s1": (_cylinder_checks, True),
    "product_c2": (_c2_checks, True),
    "rank2_thom": (_rank2_checks, True),
    "rank2_riemann_roch": (_riemann_roch_checks, True),
    "appendix_bounds": (_appendix_checks, True),
    "s2_euler": (_sphere_checks, False),
}

SCENARIO_NAMES = tuple(_BUILDERS)


def scenario_is_gating(name: str) -> bool:
    return _BUILDERS[name][1]


def run_scenario(name: str, config: ScenarioConfig | None = None) -> list[CheckResult]:
    """Run one scenario's checks and collect timed results."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown scenario {name!r} (have {', '.join(SCENARIO_NAMES)})")
    config = config or ScenarioConfig()
    builder, gating = _BUILDERS[name]
    checks = builder(config)

    def execute(item):
        check_id, fn = item
        start = time.perf_counter()
        out: _Outcome = fn()
        elapsed = (time.perf_counter() - start) * 1000.0
        tol = out.tol * config.tol_scale
        err = out.abs_err if out.gate == "abs" else out.rel_err
        return CheckResult(
            check_id=check_id,
            lhs=out.lhs,
            rhs=out.rhs,
            abs_err=float(out.abs_err),
            rel_err=float(out.rel_err),
            tol=float(tol),
            passed=bool(err <= tol),
            runtime_ms=elapsed,
            gate=out.gate,
            gating=gating,
        )

    return [execute(item) for item in checks]
