"""Z/2-graded matrices with differential-form entries, and their exponentials.

A ``SuperMatrixForm`` stores a form-valued endomorphism of a graded vector
space C^{p|q} as components ``{multi-index I -> array}``; the array for I
holds the (n x n) matrix coefficient of dx_I, stacked over jet slots so that
first (and optionally second) coordinate derivatives ride along through all
products and exponentials.

Component calculus ("forms first" ordering):

* product:    (M * N)[K] = sum_{I disjoint J, I u J = K}
              sign(I,J) * M[I] @ (g^{|I|} N[J] g^{|I|}),
              where g = diag(+1 on the even block, -1 on the odd block);
* supertrace: Str(M)[I] = sum_i g_ii M[I]_ii, computed by
              ``supertrace_slots`` on slot arrays that may carry batch axes
              (quillen traces whole t-batches with it); ``supertrace``
              reads one unbatched matrix into a FormValue;
* d-bracket:  [d, M][{k} merge I] += sign * (g @ d_k M[I] @ g).

``graded_exp`` embeds M into End(Lambda(C^m) (x) E) by the left regular
representation of the form factor (an algebra isomorphism onto its image).
A left-multiplication matrix is fixed by its first block column, so only
that column of e^M is computed: Taylor scaling-and-squaring with thin
(N x N) @ (N x n) products, N = n * 2^m, where each N x N factor is gathered
from a column by ``_left_mult``. ``volterra_exp`` is the independent route
that expands e^{H+R} around a form-degree-0 Hermitian part by iterated
simplex integrals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .exterior import FormValue, merge_multiindex
from .jets import Jet
from .quadrature import gauss_legendre

__all__ = [
    "ParitySplit",
    "SuperMatrixForm",
    "HermitianEndo",
    "star_product",
    "supertrace",
    "supertrace_slots",
    "slots_form",
    "d_bracket",
    "graded_exp",
    "volterra_exp",
    "graded_norm",
    "smallest_eigenvalue",
    "identity_form",
    "lincomb",
]

# Hard cap on the regular-representation size n * 2^m used by graded_exp.
MAX_EXP_DIM = 4096

# Taylor scaling-and-squaring parameters: scale until the ring norm is at
# most TAYLOR_RADIUS, then sum TAYLOR_TERMS terms.
TAYLOR_RADIUS = 0.5
TAYLOR_TERMS = 20


@dataclass(frozen=True)
class ParitySplit:
    """Dimensions of the even (+) and odd (-) summands of a graded space."""

    plus_dim: int
    minus_dim: int

    @property
    def dim(self) -> int:
        return self.plus_dim + self.minus_dim

    def grading(self) -> np.ndarray:
        """The +-1 parity vector (plus block first)."""
        return np.concatenate(
            [np.ones(self.plus_dim), -np.ones(self.minus_dim)]
        )


def jet_slots(order: int, chart_dim: int) -> int:
    """Number of stacked derivative slots for a given jet order."""
    if order == 0:
        return 1
    if order == 1:
        return 1 + chart_dim
    if order == 2:
        return 1 + chart_dim + chart_dim * chart_dim
    raise ValueError(f"unsupported jet order {order}")


def order_of_slots(slots: int, chart_dim: int) -> int:
    for order in (0, 1, 2):
        if slots == jet_slots(order, chart_dim):
            return order
    raise ValueError(f"array has {slots} slots, not a jet layout for m={chart_dim}")


def jet_matmul(a: np.ndarray, b: np.ndarray, chart_dim: int) -> np.ndarray:
    """Matrix product over the jet ring.

    ``a`` has shape (..., S, r, k) and ``b`` (..., S, k, c); the result is
    (..., S, r, c). The slot axis holds value, then gradients, then
    (optionally) the row-major Hessian. Mixed orders are truncated to the
    smaller one.
    """
    m = chart_dim
    slots = min(a.shape[-3], b.shape[-3])
    a = a[..., :slots, :, :]
    b = b[..., :slots, :, :]
    order = order_of_slots(slots, m)
    out = np.matmul(a[..., 0:1, :, :], b)
    if order == 0:
        return out
    out[..., 1:, :, :] += np.matmul(a[..., 1:, :, :], b[..., 0:1, :, :])
    if order == 2:
        ga = a[..., 1 : 1 + m, :, :]
        gb = b[..., 1 : 1 + m, :, :]
        cross = np.einsum("...aij,...bjk->...abik", ga, gb)
        cross = cross + np.swapaxes(cross, -4, -3)
        out[..., 1 + m :, :, :] += cross.reshape(
            cross.shape[:-4] + (m * m,) + cross.shape[-2:]
        )
    return out


@dataclass
class SuperMatrixForm:
    """Form-valued graded endomorphism on one chart (see module docstring).

    ``components[I]`` has shape (..., S, n, n): optional leading batch axes,
    jet slots S, then the matrix.
    """

    split: ParitySplit
    chart_dim: int
    components: dict[tuple[int, ...], np.ndarray]

    def __post_init__(self):
        n = self.split.dim
        self.components = {
            tuple(i): np.asarray(c, dtype=complex) for i, c in self.components.items()
        }
        slots = set()
        for i, c in self.components.items():
            if c.ndim < 3 or c.shape[-1] != n or c.shape[-2] != n:
                raise ValueError(f"component {i} is not a slot stack of {n}x{n} matrices")
            slots.add(c.shape[-3])
        if len(slots) > 1:
            raise ValueError(f"components carry different jet slot counts {sorted(slots)}")
        for s in slots:
            order_of_slots(s, self.chart_dim)

    @property
    def slots(self) -> int:
        for c in self.components.values():
            return c.shape[-3]
        return 1

    @property
    def jet_order(self) -> int:
        return order_of_slots(self.slots, self.chart_dim)

    def __add__(self, other: "SuperMatrixForm") -> "SuperMatrixForm":
        return lincomb([(1.0, self), (1.0, other)])

    def __sub__(self, other: "SuperMatrixForm") -> "SuperMatrixForm":
        return lincomb([(1.0, self), (-1.0, other)])

    def __mul__(self, scalar) -> "SuperMatrixForm":
        return SuperMatrixForm(
            self.split,
            self.chart_dim,
            {i: c * scalar for i, c in self.components.items()},
        )

    __rmul__ = __mul__

    def truncate_order(self, order: int) -> "SuperMatrixForm":
        s = jet_slots(order, self.chart_dim)
        if s >= self.slots:
            return self
        return SuperMatrixForm(
            self.split,
            self.chart_dim,
            {i: c[..., :s, :, :] for i, c in self.components.items()},
        )

    def component(self, index: tuple[int, ...]) -> np.ndarray:
        n = self.split.dim
        try:
            return self.components[tuple(index)]
        except KeyError:
            return np.zeros((self.slots, n, n), dtype=complex)


def _slots_to_coefficient(slot_vec: np.ndarray, m: int):
    """Convert a stacked slot vector (S,) into a Jet or plain complex.

    A (k, S) stack on a row of k nodes gives a row jet or a node array.
    """
    s = slot_vec.shape[-1]
    value = slot_vec[..., 0]
    if s == 1:
        return value.copy() if slot_vec.ndim > 1 else complex(value)
    if s == 1 + m:
        return Jet(value, slot_vec[..., 1:])
    hess = slot_vec[..., 1 + m :].reshape(slot_vec.shape[:-1] + (m, m))
    return Jet(value, slot_vec[..., 1 : 1 + m], hess)


def coefficient_to_slots(coeff, m: int, order: int) -> np.ndarray:
    """Inverse of :func:`_slots_to_coefficient` at a requested order."""
    s = jet_slots(order, m)
    out = np.zeros(s, dtype=complex)
    if isinstance(coeff, Jet):
        out[0] = coeff.value
        if order >= 1:
            out[1 : 1 + m] = coeff.grad
        if order == 2 and coeff.hess is not None:
            out[1 + m :] = coeff.hess.reshape(-1)
    else:
        out[0] = coeff
    return out


def identity_form(split: ParitySplit, chart_dim: int, order: int = 0) -> SuperMatrixForm:
    s = jet_slots(order, chart_dim)
    n = split.dim
    block = np.zeros((s, n, n), dtype=complex)
    block[0] = np.eye(n)
    return SuperMatrixForm(split, chart_dim, {(): block})


def lincomb(pairs) -> SuperMatrixForm:
    """Linear combination sum_k c_k M_k of graded matrices on one chart."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("empty linear combination")
    split = pairs[0][1].split
    m = pairs[0][1].chart_dim
    slots = {arr.shape[-3] for _, mat in pairs for arr in mat.components.values()}
    if len(slots) > 1:
        raise ValueError(f"linear combination of different jet slot counts {sorted(slots)}")
    out: dict[tuple[int, ...], np.ndarray] = {}
    for c, mat in pairs:
        if mat.split != split or mat.chart_dim != m:
            raise ValueError("mismatched graded matrices in linear combination")
        for i, arr in mat.components.items():
            term = c * arr
            out[i] = out[i] + term if i in out else term
    return SuperMatrixForm(split, m, out)


def star_product(a: SuperMatrixForm, b: SuperMatrixForm) -> SuperMatrixForm:
    """The graded product of two form-valued matrices."""
    if a.split != b.split or a.chart_dim != b.chart_dim:
        raise ValueError("mismatched graded matrices")
    g = a.split.grading()
    m = a.chart_dim
    out: dict[tuple[int, ...], np.ndarray] = {}
    for i_left, c_left in a.components.items():
        odd = len(i_left) % 2 == 1
        for i_right, c_right in b.components.items():
            sign, merged = merge_multiindex(i_left, i_right)
            if sign == 0:
                continue
            rhs = g[:, None] * c_right * g[None, :] if odd else c_right
            term = jet_matmul(c_left, rhs, m)
            if sign < 0:
                term = -term
            out[merged] = out[merged] + term if merged in out else term
    return SuperMatrixForm(a.split, m, out)


def supertrace_slots(mat: SuperMatrixForm) -> dict[tuple[int, ...], np.ndarray]:
    """Graded trace as slot arrays {I: (..., S)}, keeping any batch axes."""
    g = mat.split.grading().astype(complex)
    return {i: np.einsum("...skk,k->...s", c, g) for i, c in mat.components.items()}


def slots_form(arrs: dict[tuple[int, ...], np.ndarray], m: int) -> FormValue:
    """The form whose dx_I coefficient is the slot vector arrs[I] of shape (S,) or (k, S)."""
    return FormValue(
        m, {i: _slots_to_coefficient(a, m) for i, a in arrs.items()}, validate=False
    )


def supertrace(mat: SuperMatrixForm) -> FormValue:
    """Graded trace, one form coefficient per stored component."""
    arrs = supertrace_slots(mat)
    if any(tr.ndim != 1 for tr in arrs.values()):
        raise ValueError("supertrace of a batched matrix; select a batch first")
    return slots_form(arrs, mat.chart_dim)


def d_bracket(mat: SuperMatrixForm) -> SuperMatrixForm:
    """The graded commutator [d, M]; consumes one jet order of M."""
    order = mat.jet_order
    if order == 0:
        raise ValueError("d-bracket needs jet coefficients (order >= 1)")
    m = mat.chart_dim
    g = mat.split.grading()
    twist = g[:, None] * g[None, :]
    s_out = jet_slots(order - 1, m)
    out: dict[tuple[int, ...], np.ndarray] = {}
    for i, c in mat.components.items():
        for k in range(1, m + 1):
            sign, merged = merge_multiindex((k,), i)
            if sign == 0:
                continue
            sliced = np.empty(c.shape[:-3] + (s_out,) + c.shape[-2:], dtype=complex)
            sliced[..., 0, :, :] = c[..., k, :, :]
            if order == 2:
                base = 1 + m + (k - 1) * m
                sliced[..., 1 : 1 + m, :, :] = c[..., base : base + m, :, :]
            term = (sign * sliced) * twist
            out[merged] = out[merged] + term if merged in out else term
    return SuperMatrixForm(mat.split, m, out)


# -- the regular-representation exponential ---------------------------------


@lru_cache(maxsize=8)
def _subset_index(m: int):
    subs = [()]
    for k in range(1, m + 1):
        subs.extend(combinations(range(1, m + 1), k))
    subs.sort(key=lambda t: (len(t), t))
    return tuple(subs), {s: i for i, s in enumerate(subs)}


@lru_cache(maxsize=8)
def _left_mult_blocks(m: int):
    """For each multi-index I, the list of (row, col, sign) wedge actions."""
    subs, index = _subset_index(m)
    table = {}
    for left in subs:
        acts = []
        for right in subs:
            sign, merged = merge_multiindex(left, right)
            if sign != 0:
                acts.append((index[merged], index[right], sign))
        table[left] = tuple(acts)
    return table


@lru_cache(maxsize=8)
def _left_mult_table(m: int) -> np.ndarray:
    """Where each block of a left-multiplication matrix comes from.

    Block (K, J) is sign(I, J) * (block I of the first block column), with
    I = K minus J, and 0 unless J is a subset of K. Entry (K, J) of the
    (2^m, 2^m) table is 1 + I for sign +1, 1 + 2^m + I for sign -1 and 0 for
    a zero block: an index into the blocks [0, column, -column].
    """
    subs, index = _subset_index(m)
    table = np.zeros((len(subs), len(subs)), dtype=np.intp)
    for left, acts in _left_mult_blocks(m).items():
        for row, col, sign in acts:
            table[row, col] = 1 + index[left] + (len(subs) if sign < 0 else 0)
    return table


def _left_mult_gather(m: int, n: int) -> np.ndarray:
    """Flat indices into [0, column, -column] of each entry of the N x N matrix."""
    table = _left_mult_table(m)
    k = np.arange(n)
    flat = table[:, None, :, None] * (n * n) + k[None, :, None, None] * n + k
    return flat.reshape(-1)


def _left_mult(col: np.ndarray, gather: np.ndarray) -> np.ndarray:
    """The left-multiplication matrix (..., N, N) whose first block column is ``col``."""
    lead, (rows, n) = col.shape[:-2], col.shape[-2:]
    flat = col.reshape(lead + (rows * n,))
    signed = np.concatenate([np.zeros(lead + (n * n,), col.dtype), flat, -flat], axis=-1)
    return signed.take(gather, axis=-1).reshape(lead + (rows, rows))


def _ring_norm(components: dict, m: int, lead: tuple[int, ...] = ()):
    """A submultiplicative bound used only to pick the scaling exponent.

    Taken over the whole batch, or with ``lead`` = the batch's node axes,
    over its last (t-) axis per node: an array over the node axes, each
    node bounded as it would be alone.
    """
    total = 0.0
    for c in components.values():
        order = order_of_slots(c.shape[-3], m)
        weights = np.ones(c.shape[-3])
        if order == 2:
            weights[1 + m :] = 0.5
        if lead:
            bound = (np.abs(c).sum(axis=-2).max(axis=-1) * weights).sum(axis=-1)
            bound = bound.reshape((1,) * (len(lead) + 1 - bound.ndim) + bound.shape)
            total = total + np.broadcast_to(bound.max(axis=-1), lead)
            continue
        flat = c.reshape((-1,) + c.shape[-3:])
        col_sums = np.abs(flat).sum(axis=-2)
        norms = col_sums.max(axis=-1)
        total += float((norms * weights).sum(axis=-1).max())
    return total


def _squarings(nrm: float) -> int:
    return int(np.ceil(np.log2(nrm / TAYLOR_RADIUS))) if nrm > TAYLOR_RADIUS else 0


def graded_exp(mat: SuperMatrixForm) -> SuperMatrixForm:
    """Exponential of a graded form-valued matrix.

    Left multiplication on the form factor embeds M into
    End(Lambda(C^m) (x) E), and a left-multiplication matrix is fixed by its
    first block column, which holds the components of M. So only that column
    of the exponential is computed: Taylor scaling-and-squaring in the jet
    ring, with every product a thin (N x N) @ (N x n) one, N = n * 2^m. Works
    for any batch shape; N is capped. The last batch axis shares one scaling
    exponent; each index of the axes before it (nodes) gets its own, so a
    node's bits do not depend on the row it is in.
    """
    m = mat.chart_dim
    n = mat.split.dim
    two_m = 1 << m
    if n * two_m > MAX_EXP_DIM:
        raise ValueError(
            f"regular representation dimension {n * two_m} exceeds {MAX_EXP_DIM}"
        )
    subs, index = _subset_index(m)
    g = mat.split.grading()
    slots = mat.slots
    batch = ()
    for c in mat.components.values():
        batch = np.broadcast_shapes(batch, c.shape[:-3])

    col = np.zeros(batch + (slots, two_m, n, n), dtype=complex)
    for i, c in mat.components.items():
        col[..., index[i], :, :] = c * g[None, :] if len(i) % 2 == 1 else c
    col = col.reshape(batch + (slots, two_m * n, n))

    # Node axes (all batch axes but the last) get one exponent per node.
    lead = batch[:-1]
    nrm = _ring_norm(mat.components, m, lead)
    if lead:
        squarings = np.array([_squarings(x) for x in nrm.ravel().tolist()]).reshape(lead)
        scale = np.array([2.0**s for s in squarings.ravel().tolist()])
        col = col / scale.reshape(lead + (1,) * 4)
    else:
        squarings = _squarings(nrm)
        if squarings:
            col = col / (2.0**squarings)

    gather = _left_mult_gather(m, n)
    left = _left_mult(col, gather)
    acc = np.zeros_like(col)
    acc[..., 0, :n, :] = np.eye(n)
    term = acc.copy()
    for j in range(1, TAYLOR_TERMS + 1):
        term = jet_matmul(left, term, m) / j
        acc = acc + term
    if lead:
        for step in range(squarings.max(initial=0)):
            live = squarings > step
            sub = acc[live]
            acc[live] = jet_matmul(_left_mult(sub, gather), sub, m)
    else:
        for _ in range(squarings):
            acc = jet_matmul(_left_mult(acc, gather), acc, m)

    res = acc.reshape(batch + (slots, two_m, n, n))
    out: dict[tuple[int, ...], np.ndarray] = {}
    for i in subs:
        block = res[..., index[i], :, :]
        if len(i) % 2 == 1:
            block = block * g[None, :]
        out[i] = block
    return SuperMatrixForm(mat.split, m, out)


def graded_norm(mat: SuperMatrixForm) -> float:
    """Sum of operator norms of the (value-slot) components."""
    total = 0.0
    for c in mat.components.values():
        v = c[..., 0, :, :]
        if v.ndim != 2:
            raise ValueError("graded_norm of a batched matrix; select a batch first")
        total += float(np.linalg.norm(v, ord=2))
    return total


# -- the Hermitian-anchor exponential ----------------------------------------


@dataclass
class HermitianEndo:
    """A plain Hermitian endomorphism (form degree 0)."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        h = self.matrix
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("expected a square matrix")
        scale = 1.0 + float(np.abs(h).max())
        if np.abs(h - h.conj().T).max() > 1e-12 * scale:
            raise ValueError("matrix is not Hermitian")


def smallest_eigenvalue(h) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    mat = h.matrix if isinstance(h, HermitianEndo) else np.asarray(h, dtype=complex)
    return float(np.linalg.eigvalsh(mat)[0])


def _simplex_nodes(k: int, order: int):
    """Nodes (s_1..s_{k+1}) and weights for the ordered k-simplex.

    The simplex {s_i >= 0, sum = 1} is reached from the unit cube through
    the ordered variables tau_j = u_1 ... u_j with Jacobian
    prod u_i^{k-i}.
    """
    u1, w1 = gauss_legendre(order, 0.0, 1.0)
    grids = np.meshgrid(*([u1] * k), indexing="ij")
    u = np.stack([a.reshape(-1) for a in grids], axis=1)
    wgrids = np.meshgrid(*([w1] * k), indexing="ij")
    w = np.prod(np.stack([a.reshape(-1) for a in wgrids], axis=1), axis=1)
    tau = np.cumprod(u, axis=1)
    jac = np.ones_like(w)
    for i in range(k):
        jac *= u[:, i] ** (k - 1 - i)
    s = np.empty((u.shape[0], k + 1))
    s[:, 0] = 1.0 - tau[:, 0]
    for j in range(1, k):
        s[:, j] = tau[:, j - 1] - tau[:, j]
    s[:, k] = tau[:, k - 1]
    return s, w * jac


def volterra_exp(h, r: SuperMatrixForm, quad_order: int = 12) -> SuperMatrixForm:
    """e^{H + R} for Hermitian degree-0 H and nilpotent positive-degree R.

    Expands around e^{H} by iterated integrals over simplices; the series
    terminates once the form degree exceeds the chart dimension. This route
    shares no exponential code with :func:`graded_exp`.
    """
    hmat = h.matrix if isinstance(h, HermitianEndo) else HermitianEndo(h).matrix
    if () in r.components:
        raise ValueError("perturbation must have no degree-0 part")
    m = r.chart_dim
    split = r.split
    n = split.dim
    if hmat.shape[0] != n:
        raise ValueError("Hermitian part size does not match the graded space")
    r = r.truncate_order(0)

    w, u = np.linalg.eigh(hmat)

    def exp_sh(s: np.ndarray) -> SuperMatrixForm:
        phases = np.exp(np.outer(s, w))
        mats = np.einsum("ij,bj,kj->bik", u, phases, u.conj())
        return SuperMatrixForm(split, m, {(): mats[:, None, :, :]})

    total = SuperMatrixForm(
        split, m, {(): (u @ np.diag(np.exp(w)) @ u.conj().T)[None, :, :]}
    )
    r_b = SuperMatrixForm(split, m, {i: c[None, ...] for i, c in r.components.items()})
    for k in range(1, m + 1):
        s, weights = _simplex_nodes(k, quad_order)
        chain = exp_sh(s[:, 0])
        for j in range(1, k + 1):
            chain = star_product(chain, r_b)
            chain = star_product(chain, exp_sh(s[:, j]))
        contrib = {
            i: np.tensordot(weights, c, axes=(0, 0))
            for i, c in chain.components.items()
        }
        total = total + SuperMatrixForm(split, m, contrib)
    return total
