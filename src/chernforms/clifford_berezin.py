"""Exterior and Clifford algebras of a Euclidean fiber, with form coefficients.

A ``GradedElement`` is a sum ``sum_S alpha_S e_S`` over subsets S of the
fiber basis {1..d}, with form-valued coefficients alpha_S living on a chart.
The same container serves two algebras, selected by a tag:

* ``"wedge"``:    e_i e_j = -e_j e_i, e_i^2 = 0;
* ``"clifford"``: c_i c_j = -c_j c_i (i != j), c_i^2 = -1.

Products use the Koszul rule for moving generator words past form
coefficients: (alpha e_S)(beta e_T) = (-1)^{|S| deg(beta)} (alpha ^ beta)
(e_S e_T), applied per homogeneous form component of beta.

The Berezin map T reads off the coefficient of the top generator e_1...e_d;
the symbol maps retag between the two algebras; tau sends degree-2 Clifford
elements to antisymmetric matrices normalized by tau(c_i c_j) e_i = 2 e_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exterior import (
    FormValue,
    degree_involution,
    differentiate_value,
    merge_multiindex,
    wedge,
)
from .jets import Jet, jet_value
from .superlinalg import (
    ParitySplit,
    SuperMatrixForm,
    coefficient_to_slots,
    jet_slots,
)

__all__ = [
    "GradedElement",
    "SpinorRep2",
    "algebra_mul",
    "berezin_T",
    "symbol_map",
    "symbol_inverse",
    "tau_map",
    "wedge_exp",
    "pfaffian",
    "contraction",
    "covariant_wedge",
    "clifford_exp_dim2",
    "spinor_rep",
    "default_spinor_rep",
]

WEDGE = "wedge"
CLIFFORD = "clifford"

# Terms kept when evaluating entire functions (sin, cos, ...) of a form
# argument by Maclaurin series; machine precision for |value part| <= ~5.
SERIES_TERMS = 48


@dataclass
class GradedElement:
    """An element of Lambda(V) or C(V) with form coefficients (see module doc)."""

    algebra: str
    dim_v: int
    chart_dim: int
    terms: dict[tuple[int, ...], FormValue]

    def __post_init__(self):
        if self.algebra not in (WEDGE, CLIFFORD):
            raise ValueError(f"unknown algebra tag {self.algebra!r}")
        clean = {}
        for s, fv in self.terms.items():
            s = tuple(s)
            if any(not 1 <= i <= self.dim_v for i in s) or list(s) != sorted(set(s)):
                raise ValueError(f"bad generator subset {s!r}")
            if fv.chart_dim != self.chart_dim:
                raise ValueError("coefficient chart dimension mismatch")
            clean[s] = fv
        self.terms = clean

    # -- helpers ---------------------------------------------------------

    def coefficient(self, subset: tuple[int, ...]) -> FormValue:
        return self.terms.get(tuple(subset), FormValue.zero(self.chart_dim))

    def max_abs(self) -> float:
        return max((fv.max_abs() for fv in self.terms.values()), default=0.0)

    def __add__(self, other: "GradedElement") -> "GradedElement":
        self._compatible(other)
        out = dict(self.terms)
        for s, fv in other.terms.items():
            out[s] = out[s] + fv if s in out else fv
        return GradedElement(self.algebra, self.dim_v, self.chart_dim, out)

    def __sub__(self, other: "GradedElement") -> "GradedElement":
        return self + other * (-1.0)

    def __mul__(self, scalar) -> "GradedElement":
        return GradedElement(
            self.algebra,
            self.dim_v,
            self.chart_dim,
            {s: fv * scalar for s, fv in self.terms.items()},
        )

    __rmul__ = __mul__

    def prune(self, tol: float = 0.0) -> "GradedElement":
        return GradedElement(
            self.algebra,
            self.dim_v,
            self.chart_dim,
            {s: fv for s, fv in self.terms.items() if fv.max_abs() > tol},
        )

    def _compatible(self, other: "GradedElement") -> None:
        if (
            self.algebra != other.algebra
            or self.dim_v != other.dim_v
            or self.chart_dim != other.chart_dim
        ):
            raise ValueError("incompatible graded elements")


@lru_cache(maxsize=4096)
def _clifford_word(left: tuple[int, ...], right: tuple[int, ...]):
    """Product of Clifford basis monomials: returns (sign, sorted subset)."""
    word = list(left) + list(right)
    sign = 1
    for i in range(1, len(word)):
        j = i
        while j > 0 and word[j - 1] > word[j]:
            word[j - 1], word[j] = word[j], word[j - 1]
            sign = -sign
            j -= 1
    out = []
    k = 0
    while k < len(word):
        if k + 1 < len(word) and word[k] == word[k + 1]:
            sign = -sign  # c_i c_i = -1
            k += 2
        else:
            out.append(word[k])
            k += 1
    return sign, tuple(out)


def algebra_mul(a: GradedElement, b: GradedElement) -> GradedElement:
    """Product in the tagged algebra, with the Koszul coefficient rule."""
    a._compatible(b)
    out: dict[tuple[int, ...], FormValue] = {}
    for s_left, f_left in a.terms.items():
        odd_word = len(s_left) % 2 == 1
        for s_right, f_right in b.terms.items():
            adj = degree_involution(f_right) if odd_word else f_right
            if a.algebra == WEDGE:
                sign, merged = merge_multiindex(s_left, s_right)
                if sign == 0:
                    continue
            else:
                sign, merged = _clifford_word(s_left, s_right)
            coeff = wedge(f_left, adj)
            if sign < 0:
                coeff = -coeff
            out[merged] = out[merged] + coeff if merged in out else coeff
    return GradedElement(a.algebra, a.dim_v, a.chart_dim, out)


def berezin_T(a: GradedElement) -> FormValue:
    """Coefficient of the top generator monomial e_1 ... e_d."""
    return a.coefficient(tuple(range(1, a.dim_v + 1)))


def symbol_map(c: GradedElement) -> GradedElement:
    """Basis-to-basis identification C(V) -> Lambda(V) (c_S -> e_S)."""
    if c.algebra != CLIFFORD:
        raise ValueError("symbol_map expects a Clifford element")
    return GradedElement(WEDGE, c.dim_v, c.chart_dim, dict(c.terms))


def symbol_inverse(a: GradedElement) -> GradedElement:
    """Quantization map Lambda(V) -> C(V) (e_S -> c_S)."""
    if a.algebra != WEDGE:
        raise ValueError("symbol_inverse expects a wedge element")
    return GradedElement(CLIFFORD, a.dim_v, a.chart_dim, dict(a.terms))


def tau_map(c: GradedElement) -> np.ndarray:
    """Degree-2 Clifford elements as antisymmetric matrices.

    Normalized by tau(c_i c_j): e_i -> 2 e_j, e_j -> -2 e_i. Coefficients
    must be numeric (degree-0 forms); higher generator degrees are rejected.
    """
    if c.algebra != CLIFFORD:
        raise ValueError("tau_map expects a Clifford element")
    d = c.dim_v
    mat = np.zeros((d, d), dtype=complex)
    for s, fv in c.terms.items():
        if len(s) == 0:
            continue
        if len(s) != 2:
            raise ValueError("tau_map is defined on generator degree 2")
        b = fv.coefficient(())
        b = jet_value(b)
        i, j = s[0] - 1, s[1] - 1
        mat[j, i] += 2.0 * b
        mat[i, j] -= 2.0 * b
    return mat


def wedge_exp(a: GradedElement, scalar_part=None) -> GradedElement:
    """exp of a wedge element with no scalar term, times exp(scalar_part).

    The nilpotent sum terminates at total degree dim_v + chart_dim; the
    scalar part (a number or Jet) exponentiates exactly.
    """
    if a.algebra != WEDGE:
        raise ValueError("wedge_exp expects a wedge element")
    kmax = a.dim_v + a.chart_dim
    one = FormValue.scalar(1.0, a.chart_dim)
    acc = GradedElement(WEDGE, a.dim_v, a.chart_dim, {(): one})
    term = acc
    for k in range(1, kmax + 1):
        term = algebra_mul(term, a) * (1.0 / k)
        if not term.prune().terms:
            break
        acc = acc + term
    if scalar_part is not None:
        factor = scalar_part.exp() if isinstance(scalar_part, Jet) else np.exp(scalar_part)
        acc = acc * factor
    return acc


def pfaffian(l2: GradedElement) -> FormValue:
    """Berezin integral of exp of a generator-degree-2 wedge element.

    For L = sum_{i<j} A_{ji} e_i e_j with numeric coefficients this is the
    Pfaffian of the antisymmetric matrix A; form coefficients ride along.
    """
    return berezin_T(wedge_exp(l2))


def contraction(a: GradedElement, xs) -> GradedElement:
    """Interior product by sum_i x_i e_i, as an odd derivation.

    ``xs`` is a sequence of d coefficients (numbers or Jets).
    """
    out: dict[tuple[int, ...], FormValue] = {}
    for s, fv in a.terms.items():
        fv_adj = degree_involution(fv)
        for pos, i in enumerate(s):
            x = xs[i - 1]
            if isinstance(x, (int, float, complex)) and x == 0:
                continue
            rest = s[:pos] + s[pos + 1 :]
            coeff = fv_adj * x
            if pos % 2 == 1:
                coeff = -coeff
            out[rest] = out[rest] + coeff if rest in out else coeff
    return GradedElement(a.algebra, a.dim_v, a.chart_dim, out)


def covariant_wedge(a: GradedElement, w_entries) -> GradedElement:
    """Covariant derivative on Lambda(V)-valued forms, frame connection W.

    ``w_entries[l][i]`` is the 1-form (nabla e_{i+1}, e_{l+1}) as a
    FormValue. Coefficients of ``a`` must carry jets (d consumes one order).
    """
    out: dict[tuple[int, ...], FormValue] = {}

    def accumulate(subset, fv):
        out[subset] = out[subset] + fv if subset in out else fv

    for s, fv in a.terms.items():
        accumulate(s, differentiate_value(fv))
        for pos, i in enumerate(s):
            inner = -1.0 if pos % 2 == 1 else 1.0
            rest = s[:pos] + s[pos + 1 :]
            for l in range(1, a.dim_v + 1):
                w = w_entries[l - 1][i - 1]
                if w is None or not w.terms:
                    continue
                sign, merged = merge_multiindex((l,), rest)
                if sign == 0:
                    continue
                accumulate(merged, wedge(w, fv) * (inner * sign))
    return GradedElement(a.algebra, a.dim_v, a.chart_dim, out)


# -- entire functions of even form arguments ---------------------------------


def _maclaurin(kind: str, terms: int) -> list[float]:
    from math import factorial

    coeffs = [0.0] * terms
    for k in range(terms):
        if kind == "cos" and k % 2 == 0:
            coeffs[k] = (-1.0) ** (k // 2) / factorial(k)
        elif kind == "sin" and k % 2 == 1:
            coeffs[k] = (-1.0) ** ((k - 1) // 2) / factorial(k)
        elif kind == "sinc" and k % 2 == 0:
            coeffs[k] = (-1.0) ** (k // 2) / factorial(k + 1)
        elif kind == "sincdiff" and k % 2 == 1:
            # (sin x - x cos x)/x^2 = sum (-1)^{j+1} 2j x^{2j-1} / (2j+1)!
            j = (k + 1) // 2
            coeffs[k] = (-1.0) ** (j + 1) * 2.0 * j / factorial(2 * j + 1)
    return coeffs


def evaluate_entire(kind: str, b: FormValue) -> FormValue:
    """cos/sin/sinc/(sin x - x cos x)/x^2 of an even form value, by series."""
    coeffs = _maclaurin(kind, SERIES_TERMS)
    acc = FormValue.scalar(coeffs[0], b.chart_dim)
    power = FormValue.scalar(1.0, b.chart_dim)
    for k in range(1, SERIES_TERMS):
        power = wedge(power, b)
        if not power.terms:
            break
        if coeffs[k] != 0.0:
            acc = acc + power * coeffs[k]
    return acc


def clifford_exp_dim2(a1: FormValue, a2: FormValue, b: FormValue) -> GradedElement:
    """Closed-form exp(a1 c1 + a2 c2 + b c1 c2) in the rank-2 Clifford algebra.

    a1, a2 are odd forms, b an even form (numeric part allowed). Uses
    exp = cos b + (sin b / b)(a1 c1 + a2 c2) + sin b c1 c2
        + h(b) a1 a2 - (sin b / b) a1 a2 c1 c2,
    with h(x) = (sin x - x cos x)/x^2, all evaluated by entire series.
    """
    m = a1.chart_dim
    cosb = evaluate_entire("cos", b)
    sinb = evaluate_entire("sin", b)
    sincb = evaluate_entire("sinc", b)
    hb = evaluate_entire("sincdiff", b)
    w = wedge(a1, a2)
    terms = {
        (): cosb + wedge(hb, w),
        (1,): wedge(sincb, a1),
        (2,): wedge(sincb, a2),
        (1, 2): sinb - wedge(sincb, w),
    }
    return GradedElement(CLIFFORD, 2, m, terms)


# -- the rank-2 spinor representation -----------------------------------------


@dataclass
class SpinorRep2:
    """Concrete 2x2 matrices for the rank-2 Clifford generators.

    Validated, not trusted: generators must be skew-adjoint square roots of
    -1, anticommute, be odd for the (1|1) grading, and give
    Str(c1 c2) = -2i (the orientation compatible with the complex structure).
    """

    c1: np.ndarray
    c2: np.ndarray

    def __post_init__(self):
        self.c1 = np.asarray(self.c1, dtype=complex)
        self.c2 = np.asarray(self.c2, dtype=complex)
        eye = np.eye(2)
        for name, c in (("c1", self.c1), ("c2", self.c2)):
            if c.shape != (2, 2):
                raise ValueError(f"{name} must be 2x2")
            if np.abs(c @ c + eye).max() > 1e-12:
                raise ValueError(f"{name}^2 != -1")
            if np.abs(c + c.conj().T).max() > 1e-12:
                raise ValueError(f"{name} is not skew-adjoint")
            if abs(c[0, 0]) > 1e-12 or abs(c[1, 1]) > 1e-12:
                raise ValueError(f"{name} is not odd for the (1|1) grading")
        if np.abs(self.c1 @ self.c2 + self.c2 @ self.c1).max() > 1e-12:
            raise ValueError("generators do not anticommute")
        prod = self.c1 @ self.c2
        if abs((prod[0, 0] - prod[1, 1]) - (-2j)) > 1e-12:
            raise ValueError("Str(c1 c2) != -2i (wrong orientation)")

    def matrix(self, subset: tuple[int, ...]) -> np.ndarray:
        out = np.eye(2, dtype=complex)
        gens = (self.c1, self.c2)
        for i in subset:
            out = out @ gens[i - 1]
        return out


def default_spinor_rep() -> SpinorRep2:
    return SpinorRep2(np.array([[0, 1j], [1j, 0]]), np.array([[0, 1], [-1, 0]]))


def spinor_rep(
    a: GradedElement, rep: SpinorRep2, order: int | None = None
) -> SuperMatrixForm:
    """Represent a rank-2 Clifford element as a graded matrix of forms.

    The forms-first storage twists an entry sitting in the odd block by
    (-1)^{form degree}, which here reduces to scaling whole components by
    (-1)^{|I| |S|}.
    """
    if a.algebra != CLIFFORD or a.dim_v != 2:
        raise ValueError("spinor_rep expects a rank-2 Clifford element")
    m = a.chart_dim
    if order is None:
        orders = [
            (1 if c.hess is None else 2)
            for fv in a.terms.values()
            for c in fv.terms.values()
            if isinstance(c, Jet)
        ]
        order = min(orders, default=0)
    slots = jet_slots(order, m)
    comps: dict[tuple[int, ...], np.ndarray] = {}
    for s, fv in a.terms.items():
        mat = rep.matrix(s)
        word_odd = len(s) % 2 == 1
        for index, coeff in fv.terms.items():
            sign = -1.0 if (word_odd and len(index) % 2 == 1) else 1.0
            stack = coefficient_to_slots(coeff, m, order)
            block = sign * stack[:, None, None] * mat[None, :, :]
            if index in comps:
                comps[index] = comps[index] + block
            else:
                comps[index] = block
    if not comps:
        comps[()] = np.zeros((slots, 2, 2), dtype=complex)
    return SuperMatrixForm(ParitySplit(1, 1), m, comps)
