"""Berezin integral, Clifford product and spinors on Lambda(V)-valued forms.

A Lambda(V)-valued form is a ``FormValue`` whose multi-indices also use the
d generators e_1..e_d of a Euclidean fiber V, labelled ``chart_dim + 1 ..
chart_dim + d`` after the chart differentials (``fiber_dim = d``). With
that forms-first order, ``exterior.wedge`` is the product of the
supercommutative algebra Omega(chart) (x) Lambda(V) (Mathai-Quillen): the
Koszul rule (alpha e_S)(beta e_T) = (-1)^{|S| deg beta} (alpha ^ beta)(e_S e_T)
is its sign of sorting the merged labels. ``generator_form(m, d, S)`` is the
monomial e_S, so a coefficient is attached by ``wedge(alpha, e_S)``.

The Clifford algebra C(V), c_i c_j = -c_j c_i (i != j) and c_i^2 = -1, is
read on the same storage through the symbol map c_S <-> e_S, a linear
identification: ``algebra_mul`` is the Clifford product, and ``spinor_rep``
sends c_S to the rank-2 spinor matrix of S.

The Berezin map T reads off the coefficient of the top monomial
e_1 ... e_d; ``wedge_exp`` is the exponential of a nilpotent form.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from numbers import Number

import numpy as np

from .exterior import (
    FormValue,
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
    "SpinorRep2",
    "generator_form",
    "generator_coefficient",
    "algebra_mul",
    "berezin_T",
    "wedge_exp",
    "pfaffian",
    "contraction",
    "covariant_wedge",
    "clifford_exp_dim2",
    "spinor_rep",
    "default_spinor_rep",
]

# Terms kept when evaluating entire functions (sin, cos, ...) of a form
# argument by Maclaurin series; machine precision for |value part| <= ~5.
SERIES_TERMS = 48


def generator_form(chart_dim: int, fiber_dim: int, subset: tuple[int, ...]) -> FormValue:
    """The generator monomial e_S (S increasing in 1..fiber_dim) as a form."""
    labels = tuple(chart_dim + i for i in subset)
    return FormValue(chart_dim, {labels: 1.0}, fiber_dim=fiber_dim)


def generator_coefficient(a: FormValue, subset: tuple[int, ...]) -> FormValue:
    """The chart form alpha_S of e_S in a = sum_S alpha_S e_S."""
    m = a.chart_dim
    labels = tuple(m + i for i in subset)
    k = len(labels)
    out = {}
    for index, coeff in a.terms.items():
        cut = len(index) - k
        if index[cut:] == labels and (cut == 0 or index[cut - 1] <= m):
            out[index[:cut]] = coeff
    return FormValue(m, out, validate=False)


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


def algebra_mul(a: FormValue, b: FormValue) -> FormValue:
    """Clifford product of two C(V)-valued forms, with the Koszul rule."""
    if a.chart_dim != b.chart_dim or a.fiber_dim != b.fiber_dim:
        raise ValueError("Clifford factors differ in chart dimension or rank")
    m = a.chart_dim
    out: dict[tuple[int, ...], object] = {}
    for i_left, c_left in a.terms.items():
        cut_left = bisect_right(i_left, m)
        form_left, word_left = i_left[:cut_left], i_left[cut_left:]
        for i_right, c_right in b.terms.items():
            cut_right = bisect_right(i_right, m)
            sign, form = merge_multiindex(form_left, i_right[:cut_right])
            if sign == 0:
                continue
            word_sign, word = _clifford_word(word_left, i_right[cut_right:])
            if len(word_left) * cut_right % 2:
                word_sign = -word_sign
            term = c_left * c_right
            if sign != word_sign:
                term = -term
            key = form + word
            out[key] = out[key] + term if key in out else term
    return FormValue(m, out, validate=False, fiber_dim=a.fiber_dim)


def berezin_T(a: FormValue) -> FormValue:
    """Coefficient of the top generator monomial e_1 ... e_d."""
    return generator_coefficient(a, tuple(range(1, a.fiber_dim + 1)))


def wedge_exp(a: FormValue, scalar_part=None) -> FormValue:
    """exp of a nilpotent form, times exp(scalar_part).

    ``a`` may use fiber generators but must have no degree-0 value: the sum
    terminates at total degree chart_dim + fiber_dim only for a nilpotent
    argument. A scalar part (a number, node array or Jet) is passed separately
    and exponentiates exactly.
    """
    if np.any(jet_value(a.terms.get((), 0.0)) != 0):
        raise ValueError(
            "wedge_exp needs a nilpotent form; pass its degree-0 part as scalar_part"
        )
    acc = FormValue.scalar(1.0, a.chart_dim, a.fiber_dim)
    term = acc
    for k in range(1, a.chart_dim + a.fiber_dim + 1):
        term = wedge(term, a) * (1.0 / k)
        if not term.terms:
            break
        acc = acc + term
    if scalar_part is not None:
        factor = scalar_part.exp() if isinstance(scalar_part, Jet) else np.exp(scalar_part)
        acc = acc * factor
    return acc


def pfaffian(l2: FormValue) -> FormValue:
    """Berezin integral of exp of a generator-degree-2 form.

    For L = sum_{i<j} A_{ji} e_i e_j with numeric coefficients this is the
    Pfaffian of the antisymmetric matrix A; form coefficients ride along.
    """
    return berezin_T(wedge_exp(l2))


def contraction(a: FormValue, xs) -> FormValue:
    """Interior product by sum_i x_i e_i, as an odd derivation.

    ``xs`` is a sequence of d coefficients (numbers or Jets). Removing the
    generator at position pos of a sorted index costs (-1)^pos: the labels
    before it are the form's differentials and the earlier generators.
    """
    m = a.chart_dim
    out: dict[tuple[int, ...], object] = {}
    for index, coeff in a.terms.items():
        for pos in range(bisect_right(index, m), len(index)):
            x = xs[index[pos] - m - 1]
            if isinstance(x, Number) and x == 0:
                continue
            term = coeff * x
            if pos % 2 == 1:
                term = -term
            rest = index[:pos] + index[pos + 1 :]
            out[rest] = out[rest] + term if rest in out else term
    return FormValue(m, out, validate=False, fiber_dim=a.fiber_dim)


def covariant_wedge(a: FormValue, w_entries) -> FormValue:
    """Covariant derivative on Lambda(V)-valued forms, frame connection W.

    ``w_entries[l][i]`` is the 1-form (nabla e_{i+1}, e_{l+1}) as a
    FormValue. Coefficients of ``a`` must carry jets (d consumes one order).
    The derivative is d + sum_{l,i} W[l][i] e_l iota_i, iota_i the
    contraction with the i-th dual basis vector.
    """
    m, d = a.chart_dim, a.fiber_dim
    out = differentiate_value(a)
    for i in range(d):
        unit = [0.0] * d
        unit[i] = 1.0
        contracted = contraction(a, unit)
        for l in range(d):
            w = w_entries[l][i]
            if w is None or not w.terms:
                continue
            out = out + wedge(w, wedge(generator_form(m, d, (l + 1,)), contracted))
    return out


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


def clifford_exp_dim2(a1: FormValue, a2: FormValue, b: FormValue) -> FormValue:
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
    return (
        cosb
        + wedge(hb, w)
        + wedge(wedge(sincb, a1), generator_form(m, 2, (1,)))
        + wedge(wedge(sincb, a2), generator_form(m, 2, (2,)))
        + wedge(sinb - wedge(sincb, w), generator_form(m, 2, (1, 2)))
    )


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
    a: FormValue, rep: SpinorRep2, order: int | None = None
) -> SuperMatrixForm:
    """Represent a rank-2 Clifford element as a graded matrix of forms.

    The one place where e_S becomes c_S = ``rep.matrix(S)``. The
    forms-first storage twists an entry sitting in the odd block by
    (-1)^{form degree}, which here reduces to scaling whole components by
    (-1)^{|I| |S|}.
    """
    if a.fiber_dim != 2:
        raise ValueError("spinor_rep expects a rank-2 Clifford element")
    m = a.chart_dim
    if order is None:
        orders = [
            (1 if c.hess is None else 2) for c in a.terms.values() if isinstance(c, Jet)
        ]
        order = min(orders, default=0)
    slots = jet_slots(order, m)
    comps: dict[tuple[int, ...], np.ndarray] = {}
    for label, coeff in a.terms.items():
        cut = bisect_right(label, m)
        index, word = label[:cut], tuple(i - m for i in label[cut:])
        sign = -1.0 if (len(word) % 2 == 1 and cut % 2 == 1) else 1.0
        stack = coefficient_to_slots(coeff, m, order)
        block = sign * stack[:, None, None] * rep.matrix(word)[None, :, :]
        if index in comps:
            comps[index] = comps[index] + block
        else:
            comps[index] = block
    if not comps:
        comps[()] = np.zeros((slots, 2, 2), dtype=complex)
    return SuperMatrixForm(ParitySplit(1, 1), m, comps)
