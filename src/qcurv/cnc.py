"""Conformal-normal-coordinate metric Taylor expansions, in exact arithmetic.

A polynomial in the chart variable xi in R^4 of degree <= 3 is its dense
coefficient vector over the 35 monomials of degree <= 3 (``_MONOMIALS``);
an array of polynomials is one object array whose last axis holds the
coefficients.  Absent coefficients are the int 0 and the others are
Fractions, so every algebraic identity below is checked to literal zero,
not to a float tolerance.  Sums, differences and rational multiples are
numpy operators; products go through a fixed table of the monomial pairs
of total degree <= 3, and derivatives through a fixed gather.

Curvature jets use the lowered-index convention of the curvature module
(round sphere positive): Ric_ij = sum_a R[a,i,a,j], and the normal
coordinate expansion

    g_ab(xi) = delta_ab + (1/3) R_aijb(0) xi^i xi^j
             + (1/6) R_aijb,k(0) xi^i xi^j xi^k + O(r^4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .fields import Box, DerivativeOrderError, MetricField, require_positive_definite

DIM = 4

# ---------------------------------------------------------------------------
# exact dense polynomials

# the monomials of degree <= 3 in four variables, the coefficient basis
_MONOMIALS = np.array(
    [m for m in itertools.product(range(DIM), repeat=DIM) if sum(m) <= 3]
)
_MONOMIAL_INDEX = {tuple(m): k for k, m in enumerate(_MONOMIALS.tolist())}
# the degree of each basis monomial
DEGREE = _MONOMIALS.sum(axis=1)


def _grouped(slots, *columns):
    """Sort rows by target slot; return the distinct slots, the sorted
    columns and where each slot's run starts (for ``np.add.reduceat``)."""
    rows = np.array(sorted(zip(slots, *columns)))
    starts = np.flatnonzero(np.diff(rows[:, 0], prepend=-1))
    return (rows[starts, 0],) + tuple(rows[:, 1:].T) + (starts,)


# d/dxi^i moves the coefficient of m + e_i to m, times m_i + 1; a source of
# degree 4 reads the zero pad at index 35
_DIFF_SOURCE = np.array([
    [_MONOMIAL_INDEX.get(tuple(m + e), len(_MONOMIALS)) for m in _MONOMIALS]
    for e in np.eye(DIM, dtype=int)
])
_DIFF_FACTOR = (_MONOMIALS.T + 1).astype(object)

# the 165 monomial pairs whose product has degree <= 3, grouped by product
_, _MUL_LEFT, _MUL_RIGHT, _MUL_START = _grouped(*zip(*[
    (_MONOMIAL_INDEX[tuple(a + b)], i, j)
    for i, a in enumerate(_MONOMIALS)
    for j, b in enumerate(_MONOMIALS)
    if sum(a + b) <= 3
]))

# for degree d, the variable tuples (i1, ..., id) grouped by the monomial
# x_i1 ... x_id they multiply to
_TERMS = {
    d: _grouped(*zip(*[
        (_MONOMIAL_INDEX[tuple(np.bincount(t, minlength=DIM))], n)
        for n, t in enumerate(itertools.product(range(DIM), repeat=d))
    ]))
    for d in (1, 2, 3)
}


def _from_terms(coef, d):
    """Polynomials sum coef[..., i1, ..., id] xi^i1 ... xi^id; the last d
    axes of ``coef`` index the variables."""
    slots, order, starts = _TERMS[d]
    flat = coef.reshape(coef.shape[: coef.ndim - d] + (-1,))
    out = np.zeros(flat.shape[:-1] + (len(_MONOMIALS),), dtype=object)
    out[..., slots] = np.add.reduceat(flat[..., order], starts, axis=-1)
    return out


def poly_mul(p, q):
    """Products of polynomial arrays (numpy broadcasting), truncated at
    degree 3."""
    terms = p[..., _MUL_LEFT] * q[..., _MUL_RIGHT]
    return np.add.reduceat(terms, _MUL_START, axis=-1)


def poly_diff(p):
    """The four partials d/dxi^i of polynomials ``p``, on a new axis before
    the coefficients."""
    padded = np.concatenate([p, np.zeros(p.shape[:-1] + (1,), dtype=object)], axis=-1)
    return padded[..., _DIFF_SOURCE] * _DIFF_FACTOR


def poly_truncate(p, max_deg):
    return np.where(DEGREE <= max_deg, p, 0)


# points per monomial product; whole-array (n, 35) temporaries on the 98k
# nodes of the curved Pohozaev ball raise the peak RSS by about 80 MB
JET_BLOCK = 4096


def _jet_table(polys, order):
    """Float coefficients of an array of exact polynomials and of their
    partials up to ``order``.

    Returns the (35, columns) table, one column per entry and derivative
    index, and the shape each order takes (entry axes, then derivative
    axes).  Each exact coefficient is converted to float once, here.
    """
    p = np.asarray(polys)
    shapes, cols = [], []
    for _ in range(order + 1):
        shapes.append(p.shape[:-1])
        cols.append(p.reshape(-1, len(_MONOMIALS)))
        p = poly_diff(p)
    return np.concatenate(cols).T.astype(float, order="C"), shapes


def _apply_jet_table(table, shapes, pts):
    """The jets a ``_jet_table`` describes at ``pts`` (n, 4): the (n, 35)
    monomial values times the table, one block of points at a time."""
    pts = np.atleast_2d(np.asarray(pts, float))
    flat = np.empty((len(pts), table.shape[1]))
    for s in range(0, len(pts), JET_BLOCK):
        powers = pts[s : s + JET_BLOCK, :, None] ** np.arange(4)
        vander = powers[:, 0, _MONOMIALS[:, 0]]
        for i in range(1, DIM):
            vander = vander * powers[:, i, _MONOMIALS[:, i]]
        np.matmul(vander, table, out=flat[s : s + JET_BLOCK])
    out, start = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        out.append(flat[:, start : start + size].reshape((len(pts),) + shape))
        start += size
    return out


def poly_jet(polys, pts, order):
    """Values and partials up to ``order`` of exact polynomials of degree <= 3.

    ``polys`` is one polynomial or an array of them; ``pts`` is (n, 4).
    Returns ``[values, first, second, ...]``; derivative axes come last, so
    ``first[n, ..., c]`` is the c-th partial of each entry.
    """
    return _apply_jet_table(*_jet_table(polys, order), pts)


# ---------------------------------------------------------------------------
# curvature jets


def _tensor(shape):
    return np.full(shape, Fraction(0), dtype=object)


def riemann_symmetry_violation(R):
    """Largest violation of the algebraic Riemann symmetries over the first
    four axes of ``R``; trailing axes are carried along.  The two
    antisymmetries and the first Bianchi identity are checked; pair
    symmetry R_abcd = R_cdab follows from them."""
    residuals = (
        R + np.einsum("bacd...->abcd...", R),
        R + np.einsum("abdc...->abcd...", R),
        R + np.einsum("acdb...->abcd...", R) + np.einsum("adbc...->abcd...", R),
    )
    return max(np.abs(r).max() for r in residuals)


def ricci_of(R0):
    return np.trace(R0, axis1=0, axis2=2)


def ricci_deriv_of(R1):
    """Ric_{ij,k} from R_{abcd,e}."""
    return np.trace(R1, axis1=0, axis2=2)


def _cyclic_sum(dr):
    """dr_ijk + dr_jki + dr_kij."""
    return dr + np.einsum("jki->ijk", dr) + np.einsum("kij->ijk", dr)


@dataclass
class CurvatureJet:
    """Riemann tensor and first derivatives at the chart origin.

    ``R0[a,b,c,d]`` = R_abcd(0), ``R1[a,b,c,d,e]`` = R_abcd,e(0), as
    Fraction-valued object arrays.  ``conformal_normal`` asserts
    Ric(0) = 0 and the symmetrized first-derivative Ricci identity.
    """

    R0: np.ndarray
    R1: np.ndarray = None
    conformal_normal: bool = False

    def __post_init__(self):
        if self.R1 is None:
            self.R1 = _tensor((DIM,) * 5)
        self.R0 = np.asarray(self.R0, dtype=object)
        self.R1 = np.asarray(self.R1, dtype=object)
        if riemann_symmetry_violation(self.R0) != 0:
            raise ValueError("R0 violates Riemann symmetries")
        if riemann_symmetry_violation(self.R1) != 0:
            raise ValueError("R1 violates Riemann symmetries slot-wise")
        if self.conformal_normal:
            if ricci_of(self.R0).any():
                raise ValueError("conformal-normal jet must have Ric(0) = 0")
            if _cyclic_sum(ricci_deriv_of(self.R1)).any():
                raise ValueError(
                    "conformal-normal jet violates the symmetrized "
                    "Ricci-derivative identity"
                )

    @classmethod
    def constant_curvature(cls, K):
        delta = np.eye(DIM, dtype=object)
        pairs = delta[:, None, :, None] * delta[None, :, None, :]
        return cls(R0=Fraction(K) * (pairs - np.einsum("abdc->abcd", pairs)))


# ---------------------------------------------------------------------------
# random conformal-normal jets via exact nullspace bases

_PAIRS = [(a, b) for a in range(DIM) for b in range(a + 1, DIM)]
_COMPS0 = [(i, j) for i in range(6) for j in range(i, 6)]  # 21 pair-sym slots

# the eight entries each of the 21 pair-symmetric slots fills, with signs
_FILL_SLOT, _FILL_SIGN, _FILL_AT = zip(*[
    (n, Fraction(s * t), at)
    for n, (i, j) in enumerate(_COMPS0)
    for ab, s in ((_PAIRS[i], 1), (_PAIRS[i][::-1], -1))
    for cd, t in ((_PAIRS[j], 1), (_PAIRS[j][::-1], -1))
    for at in (ab + cd, cd + ab)
])
_FILL_AT = tuple(np.array(_FILL_AT).T)


def _fill_riemann(vec):
    R = _tensor((DIM,) * 4)
    R[_FILL_AT] = np.asarray(vec, dtype=object)[list(_FILL_SLOT)] * _FILL_SIGN
    return R


def _nullspace(mat):
    """Exact nullspace basis of a rational matrix, one vector per row.

    The basis is the one sympy's ``Matrix.nullspace`` returns, since the
    reduced row echelon form is unique: one vector per free column, in
    ascending order, with 1 in that column and minus the reduced pivot
    rows' entries of that column in the pivot columns.
    """
    m = np.vectorize(Fraction, otypes=[object])(mat)
    pivots = []
    for c in range(m.shape[1]):
        r = len(pivots)
        nonzero = np.flatnonzero(m[r:, c])
        if not nonzero.size:
            continue
        m[[r, r + nonzero[0]]] = m[[r + nonzero[0], r]]
        m[r] = m[r] / m[r, c]
        hit = np.flatnonzero(m[:, c])
        hit = hit[hit != r]
        m[hit] -= np.outer(m[hit, c], m[r])
        pivots.append(c)
    free = [c for c in range(m.shape[1]) if c not in pivots]
    basis = _tensor((len(free), m.shape[1]))
    basis[range(len(free)), free] = Fraction(1)
    basis[:, pivots] = -m[: len(pivots), free].T
    return basis


def _riemann_constraints(vec_to_tensor, n_vars, rows_fn):
    cols = [rows_fn(vec_to_tensor(unit)) for unit in np.eye(n_vars, dtype=object)]
    basis = _nullspace(np.array(cols, dtype=object).T)
    basis.flags.writeable = False
    return basis


def _bianchi1(R):
    """First Bianchi sum R_0123 + R_0231 + R_0312, per trailing slot."""
    return R[0, 1, 2, 3] + R[0, 2, 3, 1] + R[0, 3, 1, 2]


@lru_cache(maxsize=1)
def _weyl_basis():
    """Exact basis of algebraic curvature tensors with Ric = 0 (dim 10),
    one vector per row."""

    def rows(R):
        return [_bianchi1(R), *ricci_of(R)[np.triu_indices(DIM)]]

    return _riemann_constraints(_fill_riemann, 21, rows)


def _fill_riemann_deriv(vec):
    return np.stack([_fill_riemann(vec[21 * e : 21 * (e + 1)]) for e in range(DIM)], axis=-1)


@lru_cache(maxsize=1)
def _deriv_basis():
    """Exact basis for admissible R_abcd,e jets at a conformal-normal origin,
    one vector per row.

    Constraints: slot-wise first Bianchi, the second Bianchi identity, and
    the symmetrized Ricci-derivative identity (nabla R(0) = 0 follows).
    """
    a, b, c, d, e = np.array(
        [ab + cde for ab in _PAIRS for cde in itertools.combinations(range(DIM), 3)]
    ).T
    sym = tuple(np.array(list(itertools.combinations_with_replacement(range(DIM), 3))).T)

    def rows(R1):
        return [
            *_bianchi1(R1),
            # second Bianchi: R_ab[cd,e] cyclic sum
            *(R1[a, b, c, d, e] + R1[a, b, d, e, c] + R1[a, b, e, c, d]),
            *_cyclic_sum(ricci_deriv_of(R1))[sym],
        ]

    return _riemann_constraints(_fill_riemann_deriv, 84, rows)


def scale_jet(jet: CurvatureJet, factor) -> CurvatureJet:
    """Jet with R0 and R1 multiplied by an exact rational factor."""
    f = Fraction(factor)
    return CurvatureJet(R0=f * jet.R0, R1=f * jet.R1, conformal_normal=jet.conformal_normal)


def random_conformal_normal_jet(rng=None):
    """Random exact-rational jet satisfying all conformal-normal constraints:
    integer combinations, coefficients in [-6, 6], of the constraint bases."""
    rng = np.random.default_rng(rng)

    def combo(basis, fill):
        return fill(rng.integers(-6, 7, len(basis)).astype(object) @ basis)

    R0 = combo(_weyl_basis(), _fill_riemann)
    R1 = combo(_deriv_basis(), _fill_riemann_deriv)
    return CurvatureJet(R0=R0, R1=R1, conformal_normal=True)


# ---------------------------------------------------------------------------
# metric Taylor polynomials


@dataclass
class MetricTaylor:
    """Exact polynomial expansion of g_ab (or g^ab) valid through degree 3."""

    comps: np.ndarray  # (4, 4, 35) polynomial array
    jet: CurvatureJet


def metric_taylor_from_jet(jet: CurvatureJet) -> MetricTaylor:
    comps = _from_terms(np.einsum("aijb->abij", jet.R0) * Fraction(1, 3), 2)
    comps += _from_terms(np.einsum("aijbk->abijk", jet.R1) * Fraction(1, 6), 3)
    comps[..., 0] = np.where(np.eye(DIM, dtype=bool), Fraction(1), 0)
    return MetricTaylor(comps=comps, jet=jet)


def inverse_metric_taylor(mt: MetricTaylor) -> MetricTaylor:
    """Sign-flipped expansion for g^ab; exact inverse through degree 3."""
    return MetricTaylor(comps=np.where(DEGREE > 0, -mt.comps, mt.comps), jet=mt.jet)


def product_defect(mt: MetricTaylor, inv: MetricTaylor):
    """g * g^{-1} - delta truncated at degree 3, a (4, 4, 35) array that is
    zero if the inverse is exact."""
    defect = poly_mul(mt.comps[:, :, None], inv.comps[None]).sum(axis=1)
    defect[..., 0] -= np.eye(DIM, dtype=int)
    return defect


def d_inverse_metric(mt: MetricTaylor):
    """Formal derivative d_c g^{ab} as a (4, 4, 4, 35) array."""
    return poly_diff(inverse_metric_taylor(mt).comps)


def d_inverse_metric_display(jet: CurvatureJet):
    """Closed form: -(2/3) R_a(ci)b xi^i
    - (1/6)(2 R_a(ci)b,j + R_aijb,c) xi^i xi^j."""
    R0, R1 = jet.R0, jet.R1
    sym = (np.einsum("acib->abci", R0) + np.einsum("aicb->abci", R0)) * Fraction(1, 2)
    symd = (np.einsum("acibj->abcij", R1) + np.einsum("aicbj->abcij", R1)) * Fraction(1, 2)
    quad = (2 * symd + np.einsum("aijbc->abcij", R1)) * Fraction(-1, 6)
    return _from_terms(sym * Fraction(-2, 3), 1) + _from_terms(quad, 2)


def contracted_first_derivative(mt: MetricTaylor):
    """d_a g^{ab} by formal contraction; requires a conformal-normal jet."""
    if not mt.jet.conformal_normal:
        raise ValueError("conformal-normal jet required")
    return np.trace(d_inverse_metric(mt), axis1=0, axis2=2)


def contracted_first_derivative_display(jet: CurvatureJet):
    """Closed form -(1/6)(2 R_ib,j - R_ij,b) xi^i xi^j."""
    dr = ricci_deriv_of(jet.R1)
    coef = (2 * np.einsum("ibj->bij", dr) - np.einsum("ijb->bij", dr)) * Fraction(-1, 6)
    return _from_terms(coef, 2)


def contracted_second_derivative(mt: MetricTaylor):
    """d_a d_d g^{ab}; linear term (2/3) R_id,b xi^i for conformal-normal jets."""
    if not mt.jet.conformal_normal:
        raise ValueError("conformal-normal jet required")
    d2 = poly_diff(poly_diff(inverse_metric_taylor(mt).comps))
    return poly_truncate(np.trace(d2, axis1=0, axis2=2), 1)


def contracted_second_derivative_display(jet: CurvatureJet):
    dr = ricci_deriv_of(jet.R1)
    return _from_terms(np.einsum("idb->bdi", dr) * Fraction(2, 3), 1)


def log_det_poly(mt: MetricTaylor):
    """log det g through degree 3 (= trace of g - delta there, since the
    perturbation starts at degree 2)."""
    return np.where(DEGREE > 0, np.trace(mt.comps), 0)


def cnc_identity_suite(jet: CurvatureJet):
    """Residual report for the conformal-normal-coordinate identities."""
    dr = ricci_deriv_of(jet.R1)
    residuals = {
        "ricci_zero": ricci_of(jet.R0),
        "ricci_deriv_symmetrized": _cyclic_sum(dr),
        "scalar_gradient_zero": np.trace(dr),
        # contracted second Bianchi: R_pijq,p = Ric_iq,j - Ric_ij,q
        "contracted_second_bianchi": np.einsum("pijqp->ijq", jet.R1)
        - (np.einsum("iqj->ijq", dr) - dr),
    }
    return {
        name: {"residual": float(np.abs(r).max()), "pass": not r.any()}
        for name, r in residuals.items()
    }


def detone_laplacian(ginv_jet, gu, hu, tu=None):
    """Laplacian in the det-one gauge: d_a g^{ab} d_b u + g^{ab} d_ab u.

    ``ginv_jet`` is the jet of g^{ab} at n points as ``poly_jet`` returns
    it, of order 1, or 2 when the third derivatives ``tu`` (n, 4, 4, 4) are
    given; ``gu`` (n, 4) and ``hu`` (n, 4, 4) are the gradient and Hessian
    of u.  Returns the Laplacian (n,), and with ``tu`` also its gradient
    (n, 4).
    """
    ginv, dginv = ginv_jet[:2]
    lap = np.einsum("njij,ni->n", dginv, gu) + np.einsum("nij,nij->n", ginv, hu)
    if tu is None:
        return lap
    glap = (
        np.einsum("njijm,ni->nm", ginv_jet[2], gu)
        + np.einsum("njij,nim->nm", dginv, hu)
        + np.einsum("nijm,nij->nm", dginv, hu)
        + np.einsum("nij,nijm->nm", ginv, tu)
    )
    return lap, glap


# ---------------------------------------------------------------------------
# blow-up metric


class PolynomialMetric:
    """Metric whose components are exact polynomials of degree <= 3.

    Values and partials up to order 2 come from ``poly_jet``'s evaluator;
    the coefficients stay exact until its single float conversion.  It
    offers what the geodesic, curvature and bubble code read from a metric:
    ``domain``, ``analytic``, ``fd_step``, ``is_flat``, ``eval_batch``,
    ``eval`` and ``jet``.
    """

    analytic = True

    def __init__(self, comps, domain):
        self.domain = domain
        self.fd_step = domain.width * 1e-2
        self._table, self._shapes = _jet_table(comps, 2)
        const = self._table[0, : DIM * DIM]
        self.is_flat = not self._table[1:, : DIM * DIM].any() and np.array_equal(
            const, np.eye(DIM).ravel()
        )

    def jet(self, pts, order):
        """``[g, dg, d2g]`` up to ``order`` in the ``MetricField.jet`` layout."""
        if order > 2:
            raise DerivativeOrderError("polynomial metric derivatives available up to order 2")
        shapes = self._shapes[: order + 1]
        cols = sum(int(np.prod(s)) for s in shapes)
        return _apply_jet_table(self._table[:, :cols], shapes, pts)

    def eval_batch(self, pts):
        return self.jet(pts, 0)[0]

    def eval(self, x):
        pts = np.atleast_2d(np.asarray(x, float))
        g = self.eval_batch(pts)
        require_positive_definite(g, pts)
        return g[0]


def blowup_metric(jet: CurvatureJet, eps, half_width=None):
    """Rescaled metric g(eps*y) in y, as a ``PolynomialMetric``.

    Each coefficient of degree k is multiplied by the exact eps^k, so the
    quadratic terms scale by eps^2 and the cubic by eps^3 (the blow-up
    gauge).  eps = 0 or a zero jet returns the flat ``MetricField``.
    """
    if half_width is None:
        half_width = 10.0 if eps == 0 else 1.0 / eps
    domain = Box.cube(half_width)
    scale = np.array([Fraction(eps) ** k for k in range(4)], dtype=object)
    g = PolynomialMetric(metric_taylor_from_jet(jet).comps * scale[DEGREE], domain)
    return MetricField.flat(domain) if g.is_flat else g
