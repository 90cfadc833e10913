"""Shared builders for the test suite: random polynomial forms with exact jets,
and the check that a row of nodes gives the bits of single points."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from chernforms.exterior import ChartPoint, FormField, FormValue
from chernforms.jets import Jet, jet_constant, jet_coordinates


@dataclass(frozen=True)
class Poly:
    """A small polynomial sum of monomials c * prod x_i^{e_i}."""

    terms: tuple[tuple[complex, tuple[int, ...]], ...]

    def at(self, jets: list[Jet]) -> Jet:
        m = len(jets)
        acc = jet_constant(0.0, m, 2)
        for coeff, exps in self.terms:
            mono = jet_constant(coeff, m, 2)
            for axis, e in enumerate(exps):
                for _ in range(e):
                    mono = mono * jets[axis]
            acc = acc + mono
        return acc


def rand_poly(rng: np.random.Generator, m: int, n_terms: int = 3, max_exp: int = 2) -> Poly:
    terms = []
    for _ in range(n_terms):
        coeff = complex(rng.normal(), rng.normal())
        exps = tuple(int(rng.integers(0, max_exp + 1)) for _ in range(m))
        terms.append((coeff, exps))
    return Poly(tuple(terms))


def poly_form_field(rng: np.random.Generator, m: int, degree: int, n_indices: int | None = None) -> FormField:
    """A homogeneous degree-``degree`` field with polynomial coefficients.

    Every evaluation carries order-2 jets, so two exterior derivatives
    are available.
    """
    indices = list(combinations(range(1, m + 1), degree))
    if n_indices is not None and n_indices < len(indices):
        chosen = rng.choice(len(indices), size=n_indices, replace=False)
        indices = [indices[int(i)] for i in chosen]
    polys = {index: rand_poly(rng, m) for index in indices}

    def evaluate(p: ChartPoint) -> FormValue:
        jets = jet_coordinates(p.coords, order=2)
        return FormValue(m, {index: poly.at(jets) for index, poly in polys.items()})

    return FormField(m, evaluate, name=f"poly{degree}")


def rand_points(rng: np.random.Generator, m: int, n: int, lo: float = -1.5, hi: float = 1.5):
    return [ChartPoint(rng.uniform(lo, hi, m)) for _ in range(n)]


def node_bits(coeff, j: int | None = None) -> tuple:
    """Every bit of a coefficient, signed zeros included; ``j`` picks a node of a row.

    A part a row shares across its nodes (no node axis) counts for node j too.
    """

    def at(a, row_ndim):
        a = np.asarray(a)
        if j is not None and a.ndim == row_ndim:
            a = a[j]
        return np.ascontiguousarray(a, dtype=complex).tobytes()

    if isinstance(coeff, Jet):
        hess = None if coeff.hess is None else at(coeff.hess, 3)
        return ("jet", at(coeff.value, 1), at(coeff.grad, 2), hess)
    return ("number", at(coeff, 1))


def assert_row_matches_points(
    field: FormField, coords: np.ndarray, same_keys: bool = True
) -> None:
    """One row call gives, node by node, the single-point form values bit for bit.

    With ``same_keys`` every node has exactly the row's keys; otherwise a key
    the row has beyond a node's own must be an exact zero at that node.
    """
    row = field(ChartPoint(coords))
    for j, x in enumerate(coords):
        point = field(ChartPoint(x))
        assert set(point.terms) <= set(row.terms), (j, set(point.terms) - set(row.terms))
        if same_keys:
            assert set(point.terms) == set(row.terms), (j, set(row.terms) - set(point.terms))
        for index, coeff in row.terms.items():
            if index in point.terms:
                assert node_bits(coeff, j) == node_bits(point.terms[index]), (j, index)
            else:
                _, *parts = node_bits(coeff, j)
                assert all(
                    p is None or not np.frombuffer(p, dtype=complex).any() for p in parts
                ), (j, index)
