"""Conformal-normal-coordinate metric Taylor expansions, in exact arithmetic.

Every exact quantity here is an ``ExactArray``: an int64 numerator array
over one positive Python-int denominator that all its entries share.  The
curvature jets, the constraint bases and the polynomial coefficients all
have tiny common denominators (the bases 1 and 2, a random jet's R1 2, its
metric 12), so every algebraic identity below is checked to literal zero,
not to a float tolerance, in machine integers.  Products and rescalings
check a bound on their numerators before they run and raise
``OverflowError`` instead of wrapping.  A coefficient becomes a float only
when a polynomial is evaluated, rounded once, as ``float(Fraction)``
rounds.

A polynomial in the chart variable xi in R^4 of degree <= 3 is its dense
coefficient vector over the 35 monomials of degree <= 3 (``_MONOMIALS``);
an array of polynomials is one ``ExactArray`` whose last axis holds the
coefficients.  The basis is the order-3 instance of the package's one
monomial table, ``fields._taylor_tables``, so a coefficient vector sits in
the slots of a Taylor jet about the origin.  Products go through that
table's monomial pairs of total degree <= 3, and derivatives, the
variable sums and float evaluation through gathers read off its slots.

Curvature jets use the lowered-index convention of the curvature module
(round sphere positive): Ric_ij = sum_a R[a,i,a,j], and the normal
coordinate expansion

    g_ab(xi) = delta_ab + (1/3) R_aijb(0) xi^i xi^j
             + (1/6) R_aijb,k(0) xi^i xi^j xi^k + O(r^4).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import JET_BLOCK
from .fields import Box, DerivativeOrderError, _taylor_tables

DIM = 4

# ---------------------------------------------------------------------------
# exact arrays

# The headroom every ExactArray keeps: with |numerators| <= 2**56, a sum of
# up to 64 of them, or one of them times an integer up to 64, fits int64.
# The fixed gathers below (derivatives, monomial sums, Riemann slots) stay
# within that; products, rescalings and contractions check their bound
# beforehand, and every new array checks its own.
NUM_MAX = 2**56


def _require_fits(bound):
    if bound > NUM_MAX:
        raise OverflowError(f"exact numerators could reach {bound}, beyond 2**56")


def _ratio_floats(num, den):
    """Floats nearest num / den for integer arrays (int64 or Python ints)
    that broadcast, rounded once, as Python's int / int and so
    ``float(Fraction(num, den))`` round."""
    num, den = np.asarray(num), np.asarray(den)
    if max(np.abs(num).max(initial=0), np.abs(den).max()) < 2**53:
        # both operands are exact floats, and IEEE division rounds once
        return num.astype(float) / den.astype(float)
    return (num.astype(object) / den.astype(object)).astype(float)


class ExactArray:
    """An array of rationals num / den: int64 numerators over one positive
    Python-int denominator.

    Immutable.  Built from integer numerators; numerators beyond NUM_MAX
    raise ``OverflowError``.  Supports numpy indexing, ``reshape``,
    one-operand ``einsum`` index maps, ``+`` and ``-`` (over the least
    common denominator), ``*`` by integers or integer arrays, ``/`` by a
    nonzero integer, and elementwise ``==`` / ``!=`` by value.
    """

    __slots__ = ("num", "den", "peak")
    __hash__ = None
    # numpy operators defer to the reflected methods below
    __array_ufunc__ = None

    def __init__(self, num, den=1):
        num = np.asarray(num)
        if num.dtype.kind not in "biuO":
            raise TypeError(f"exact numerators must be integers, not {num.dtype}")
        # measured before the cast, which would wrap uint64 or Python ints
        self.peak = int(np.abs(num).max(initial=0))
        _require_fits(self.peak)
        self.num = num.astype(np.int64)
        self.num.flags.writeable = False
        self.den = operator.index(den)
        if self.den <= 0:
            raise ValueError("exact denominator must be positive")

    @property
    def shape(self):
        return self.num.shape

    @property
    def ndim(self):
        return self.num.ndim

    def __getitem__(self, idx):
        return ExactArray(self.num[idx], self.den)

    def reshape(self, *shape):
        return ExactArray(self.num.reshape(*shape), self.den)

    def einsum(self, spec):
        """``np.einsum(spec, self)``: a permutation, diagonal or trace of
        this one array."""
        terms = np.einsum(spec, np.ones_like(self.num)).max(initial=0)
        _require_fits(self.peak * int(terms))
        return ExactArray(np.einsum(spec, self.num), self.den)

    def any(self):
        return bool(self.num.any())

    def abs_max(self):
        """The largest |entry| as a float, rounded once."""
        return self.peak / self.den

    def to_float(self):
        return _ratio_floats(self.num, self.den)

    def _over(self, den):
        """Numerators over ``den``, a multiple of this denominator."""
        k = den // self.den
        _require_fits(self.peak * k)
        return self.num * k

    def __add__(self, other):
        other = other if isinstance(other, ExactArray) else ExactArray(other)
        den = math.lcm(self.den, other.den)
        return ExactArray(self._over(den) + other._over(den), den)

    def __neg__(self):
        return ExactArray(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, factor):
        if isinstance(factor, int) and factor.bit_length() > 63:
            raise OverflowError(f"integer factor of {factor.bit_length()} bits, beyond int64")
        factor = np.asarray(factor)
        if factor.dtype.kind not in "biu":
            return NotImplemented
        _require_fits(self.peak * int(np.abs(factor).max(initial=0)))
        return ExactArray(self.num * factor, self.den)

    __rmul__ = __mul__

    def __truediv__(self, d):
        d = operator.index(d)
        sign = -1 if d < 0 else 1
        return ExactArray(sign * self.num, self.den * abs(d))

    def __eq__(self, other):
        other = other if isinstance(other, ExactArray) else ExactArray(other)
        den = math.lcm(self.den, other.den)
        return self._over(den) == other._over(den)

    def __ne__(self, other):
        return ~(self == other)


def concatenate(parts, axis=0):
    """``np.concatenate`` of exact arrays, over their least common denominator."""
    den = math.lcm(*(p.den for p in parts))
    return ExactArray(np.concatenate([p._over(den) for p in parts], axis=axis), den)


# ---------------------------------------------------------------------------
# exact dense polynomials

# the coefficient basis, the monomials of degree <= 3 in four variables;
# each sorted multi-index's slot; the 165 monomial pairs whose product has
# degree <= 3, sorted by product slot, and where each product slot's run
# starts (for ``np.add.reduceat``)
_MONOMIALS, _SLOT, _, _MUL, _MUL_START, _ = _taylor_tables(3)
# the degree of each basis monomial
DEGREE = _MONOMIALS.sum(axis=1)

# d/dxi^i moves the coefficient of m + e_i to m, times m_i + 1; a source of
# degree 4 reads the zero pad at index 35
_DIFF_SOURCE = np.array(
    [[_SLOT.get(tuple(sorted(i + (v,))), len(_SLOT)) for i in _SLOT] for v in range(DIM)]
)
_DIFF_FACTOR = _MONOMIALS.T + 1

_, _MUL_LEFT, _MUL_RIGHT = _MUL.T
# the most pairs that land in one product coefficient
_MUL_TERMS = int(np.diff(_MUL_START, append=len(_MUL)).max())

# for degree d, the slot of the monomial x_i1 ... x_id each variable tuple
# (i1, ..., id) multiplies to
_TERMS = {
    d: np.array([_SLOT[tuple(sorted(t))] for t in itertools.product(range(DIM), repeat=d)])
    for d in (1, 2, 3)
}


def _from_terms(coef, d):
    """Polynomials sum coef[..., i1, ..., id] xi^i1 ... xi^id; the last d
    axes of ``coef`` index the variables."""
    flat = coef.num.reshape(coef.shape[: coef.ndim - d] + (-1,))
    out = np.zeros(flat.shape[:-1] + (len(_MONOMIALS),), dtype=np.int64)
    np.add.at(out, (..., _TERMS[d]), flat)
    return ExactArray(out, coef.den)


def poly_mul(p, q):
    """Products of polynomial arrays (numpy broadcasting), truncated at
    degree 3."""
    _require_fits(p.peak * q.peak * _MUL_TERMS)
    terms = p.num[..., _MUL_LEFT] * q.num[..., _MUL_RIGHT]
    return ExactArray(np.add.reduceat(terms, _MUL_START, axis=-1), p.den * q.den)


def poly_diff(p):
    """The four partials d/dxi^i of polynomials ``p``, on a new axis before
    the coefficients."""
    padded = np.concatenate([p.num, np.zeros(p.shape[:-1] + (1,), dtype=np.int64)], axis=-1)
    return ExactArray(padded[..., _DIFF_SOURCE] * _DIFF_FACTOR, p.den)


def poly_truncate(p, max_deg):
    return p * (DEGREE <= max_deg)


# (rows, parents, v) for degrees 1, 2, 3: each monomial is its parent times
# xi^v, v the last axis of its sorted multi-index
_GRADED = [
    tuple(np.array([(k, _SLOT[i[:-1]], i[-1]) for i, k in _SLOT.items() if len(i) == d]).T)
    for d in (1, 2, 3)
]


def _jet_table(polys, order, eps=1.0):
    """Float coefficients, in y, of exact polynomials p(eps * y) and of
    their partials up to ``order``.

    Returns the (35, columns) table, one column per entry and derivative
    index, and the shape each order takes (entry axes, then derivative
    axes).  A degree-k coefficient of an order-o partial is multiplied by
    eps^(k + o), with eps the rational its float is, and each entry is
    rounded to float once, here.
    """
    en, ed = float(eps).as_integer_ratio()
    pow_n = np.array([en**k for k in range(order + 4)], dtype=object)
    pow_d = np.array([ed**k for k in range(order + 4)], dtype=object)
    shapes, cols = [], []
    for o in range(order + 1):
        shapes.append(polys.shape[:-1])
        k = DEGREE + o
        num = polys.num.reshape(-1, len(_MONOMIALS)) * pow_n[k]
        cols.append(_ratio_floats(num, polys.den * pow_d[k]))
        polys = poly_diff(polys)
    return np.ascontiguousarray(np.concatenate(cols).T), shapes


def _apply_jet_table(table, shapes, pts, out=None):
    """The jets a ``_jet_table`` describes at ``pts`` (n, 4): the monomial
    values by graded products times the table, one block of points at a time.

    Returns ``[values, first, second, ...]``; derivative axes come last, so
    ``first[n, ..., c]`` is the c-th partial of each entry.  Rows agree
    across batch sizes to rounding, not bit for bit: within 35 ulp of the
    sum of the magnitudes of a row's 35 terms.  The product is written into
    ``out``, a C-ordered (n, columns) array, when one is given; the jets
    are views of it.
    """
    pts = np.atleast_2d(np.asarray(pts, float))
    flat = np.empty((len(pts), table.shape[1])) if out is None else out
    for s in range(0, len(pts), JET_BLOCK):
        xs = pts[s : s + JET_BLOCK].T
        mono = np.ones((len(_MONOMIALS), xs.shape[1]))
        for rows, parents, variables in _GRADED:
            mono[rows] = mono[parents] * xs[variables]
        np.matmul(mono.T, table, out=flat[s : s + JET_BLOCK])
    out, start = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        out.append(flat[:, start : start + size].reshape((len(pts),) + shape))
        start += size
    return out


# ---------------------------------------------------------------------------
# curvature jets


def riemann_symmetry_violation(R):
    """Largest violation of the algebraic Riemann symmetries over the first
    four axes of ``R``, as a float; trailing axes are carried along.  The
    two antisymmetries and the first Bianchi identity are checked; pair
    symmetry R_abcd = R_cdab follows from them."""
    residuals = (
        R + R.einsum("bacd...->abcd..."),
        R + R.einsum("abdc...->abcd..."),
        R + R.einsum("acdb...->abcd...") + R.einsum("adbc...->abcd..."),
    )
    return max(r.abs_max() for r in residuals)


def ricci_of(R):
    """Ric_bd from R_abcd; trailing axes ride along, so Ric_{bd,e} from R_{abcd,e}."""
    return R.einsum("abad...->bd...")


def _cyclic_sum(dr):
    """dr_ijk + dr_jki + dr_kij."""
    return dr + dr.einsum("jki...->ijk...") + dr.einsum("kij...->ijk...")


@dataclass
class CurvatureJet:
    """Riemann tensor and first derivatives at the chart origin.

    ``R0[a,b,c,d]`` = R_abcd(0), ``R1[a,b,c,d,e]`` = R_abcd,e(0), as
    ``ExactArray``s.  ``conformal_normal`` asserts Ric(0) = 0 and the
    symmetrized first-derivative Ricci identity.
    """

    R0: ExactArray
    R1: ExactArray = None
    conformal_normal: bool = False

    def __post_init__(self):
        if self.R1 is None:
            self.R1 = ExactArray(np.zeros((DIM,) * 5, dtype=np.int64))
        if riemann_symmetry_violation(self.R0) != 0:
            raise ValueError("R0 violates Riemann symmetries")
        if riemann_symmetry_violation(self.R1) != 0:
            raise ValueError("R1 violates Riemann symmetries slot-wise")
        if self.conformal_normal:
            if ricci_of(self.R0).any():
                raise ValueError("conformal-normal jet must have Ric(0) = 0")
            if _cyclic_sum(ricci_of(self.R1)).any():
                raise ValueError(
                    "conformal-normal jet violates the symmetrized "
                    "Ricci-derivative identity"
                )

    @classmethod
    def constant_curvature(cls, K):
        """Constant sectional curvature K, an int or a Fraction."""
        delta = np.eye(DIM, dtype=np.int64)
        pairs = delta[:, None, :, None] * delta[None, :, None, :]
        R0 = ExactArray(pairs - np.einsum("abdc->abcd", pairs))
        return cls(R0=R0 * K.numerator / K.denominator)


# ---------------------------------------------------------------------------
# random conformal-normal jets via exact nullspace bases

_PAIRS = [(a, b) for a in range(DIM) for b in range(a + 1, DIM)]
_COMPS0 = [(i, j) for i in range(6) for j in range(i, 6)]  # 21 pair-sym slots

# the eight entries each of the 21 pair-symmetric slots fills, with signs
_FILL_SLOT, _FILL_SIGN, _FILL_AT = (np.array(c) for c in zip(*[
    (n, s * t, at)
    for n, (i, j) in enumerate(_COMPS0)
    for ab, s in ((_PAIRS[i], 1), (_PAIRS[i][::-1], -1))
    for cd, t in ((_PAIRS[j], 1), (_PAIRS[j][::-1], -1))
    for at in (ab + cd, cd + ab)
]))
_FILL_AT = tuple(_FILL_AT.T)


def _fill_riemann(vec):
    """Algebraic curvature tensors from their 21 pair-symmetric slot values
    on the first axis of ``vec``; trailing axes are carried along."""
    R = np.zeros((DIM,) * 4 + vec.shape[1:], dtype=np.int64)
    signs = _FILL_SIGN.reshape((-1,) + (1,) * (vec.ndim - 1))
    R[_FILL_AT] = vec.num[_FILL_SLOT] * signs
    return ExactArray(R, vec.den)


def _fill_riemann_deriv(vec):
    """R_abcd,e from 84 values, slot e's 21 at 21e ... 21e + 20."""
    slots = vec.num.reshape((DIM, 21) + vec.shape[1:]).swapaxes(0, 1)
    return _fill_riemann(ExactArray(slots, vec.den))


def _nullspace(mat):
    """Exact nullspace basis of an integer matrix, one vector per row, as
    numerators over their least common denominator.

    The basis is the one sympy's ``Matrix.nullspace`` returns, since the
    reduced row echelon form is unique: one vector per free column, in
    ascending order, with 1 in that column and minus the reduced pivot
    rows' entries of that column in the pivot columns.  The elimination is
    fraction-free, in Python ints: each updated row is a cross-multiple
    divided by its gcd, so every pivot row is its reduced row times its
    pivot entry.
    """
    m = np.array(mat, dtype=object)
    pivots = []
    for c in range(m.shape[1]):
        r = len(pivots)
        nonzero = np.flatnonzero(m[r:, c])
        if not nonzero.size:
            continue
        m[[r, r + nonzero[0]]] = m[[r + nonzero[0], r]]
        hit = np.flatnonzero(m[:, c])
        hit = hit[hit != r]
        m[hit] = m[hit] * m[r, c] - np.outer(m[hit, c], m[r])
        m[hit] //= np.maximum(np.gcd.reduce(m[hit], axis=1), 1)[:, None]
        pivots.append(c)
    free = [c for c in range(m.shape[1]) if c not in pivots]
    rows = m[: len(pivots)]
    pivot_vals = rows[range(len(pivots)), pivots]
    # entry (r, f) reduces to rows[r, f] / pivot_vals[r]; row r's lcm
    # denominator is |pivot| / gcd(pivot, row r's free entries)
    row_dens = [abs(p) // math.gcd(p, *row[free]) for p, row in zip(pivot_vals, rows)]
    den = math.lcm(*row_dens)
    basis = np.zeros((len(free), m.shape[1]), dtype=object)
    basis[range(len(free)), free] = den
    basis[:, pivots] = (-rows[:, free].T * den) // pivot_vals
    return ExactArray(basis, den)


def _bianchi1(R):
    """First Bianchi sum R_0123 + R_0231 + R_0312, per trailing slot."""
    return R[0, 1, 2, 3] + R[0, 2, 3, 1] + R[0, 3, 1, 2]


@lru_cache(maxsize=1)
def _weyl_basis():
    """Exact basis of algebraic curvature tensors with Ric = 0 (dim 10),
    one vector per row."""
    # the tensor of each unit vector, on the last axis
    R = _fill_riemann(ExactArray(np.eye(21, dtype=np.int64)))
    return _nullspace(concatenate([_bianchi1(R)[None], ricci_of(R)[np.triu_indices(DIM)]]).num)


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
    R1 = _fill_riemann_deriv(ExactArray(np.eye(84, dtype=np.int64)))
    rows = concatenate([
        _bianchi1(R1),
        # second Bianchi: R_ab[cd,e] cyclic sum
        R1[a, b, c, d, e] + R1[a, b, d, e, c] + R1[a, b, e, c, d],
        _cyclic_sum(ricci_of(R1))[sym],
    ])
    return _nullspace(rows.num)


def scale_jet(jet: CurvatureJet, factor) -> CurvatureJet:
    """Jet with R0 and R1 multiplied by an exact rational factor (an int or
    a Fraction)."""
    n, d = factor.numerator, factor.denominator
    return CurvatureJet(
        R0=jet.R0 * n / d, R1=jet.R1 * n / d, conformal_normal=jet.conformal_normal
    )


def random_conformal_normal_jet(rng=None):
    """Random exact-rational jet satisfying all conformal-normal constraints:
    integer combinations, coefficients in [-6, 6], of the constraint bases."""
    rng = np.random.default_rng(rng)

    def combo(basis, fill):
        coef = rng.integers(-6, 7, len(basis.num))
        _require_fits(6 * int(np.abs(basis.num).sum(axis=0).max()))
        return fill(ExactArray(coef @ basis.num, basis.den))

    R0 = combo(_weyl_basis(), _fill_riemann)
    R1 = combo(_deriv_basis(), _fill_riemann_deriv)
    return CurvatureJet(R0=R0, R1=R1, conformal_normal=True)


# ---------------------------------------------------------------------------
# metric Taylor polynomials

# the constant polynomials delta_ab
_IDENTITY = np.zeros((DIM, DIM, len(_MONOMIALS)), dtype=np.int64)
_IDENTITY[..., 0] = np.eye(DIM, dtype=np.int64)
# g^ab through degree 3 is g_ab with its nonconstant terms negated
_INVERSE_SIGN = np.where(DEGREE > 0, -1, 1)


@dataclass
class MetricTaylor:
    """Exact polynomial expansion of g_ab (or g^ab) valid through degree 3."""

    comps: ExactArray  # (4, 4, 35) polynomial array
    jet: CurvatureJet


def metric_taylor_from_jet(jet: CurvatureJet) -> MetricTaylor:
    comps = (
        _from_terms(jet.R0.einsum("aijb->abij"), 2) / 3
        + _from_terms(jet.R1.einsum("aijbk->abijk"), 3) / 6
        + _IDENTITY
    )
    return MetricTaylor(comps=comps, jet=jet)


def inverse_metric_taylor(mt: MetricTaylor) -> MetricTaylor:
    """Sign-flipped expansion for g^ab; exact inverse through degree 3."""
    return MetricTaylor(comps=mt.comps * _INVERSE_SIGN, jet=mt.jet)


def product_defect(mt: MetricTaylor, inv: MetricTaylor):
    """g * g^{-1} - delta truncated at degree 3, a (4, 4, 35) array that is
    zero if the inverse is exact."""
    return poly_mul(mt.comps[:, :, None], inv.comps[None]).einsum("abck->ack") - _IDENTITY


def d_inverse_metric(mt: MetricTaylor):
    """Formal derivative d_c g^{ab} as a (4, 4, 4, 35) array."""
    return poly_diff(inverse_metric_taylor(mt).comps)


def d_inverse_metric_display(jet: CurvatureJet):
    """Closed form: -(2/3) R_a(ci)b xi^i
    - (1/6)(2 R_a(ci)b,j + R_aijb,c) xi^i xi^j."""
    R0, R1 = jet.R0, jet.R1
    sym = (R0.einsum("acib->abci") + R0.einsum("aicb->abci")) / 2
    symd = (R1.einsum("acibj->abcij") + R1.einsum("aicbj->abcij")) / 2
    quad = (2 * symd + R1.einsum("aijbc->abcij")) / -6
    return _from_terms(sym * -2 / 3, 1) + _from_terms(quad, 2)


def contracted_first_derivative(mt: MetricTaylor):
    """d_a g^{ab} by formal contraction; requires a conformal-normal jet."""
    if not mt.jet.conformal_normal:
        raise ValueError("conformal-normal jet required")
    return d_inverse_metric(mt).einsum("abak->bk")


def contracted_first_derivative_display(jet: CurvatureJet):
    """Closed form -(1/6)(2 R_ib,j - R_ij,b) xi^i xi^j."""
    dr = ricci_of(jet.R1)
    return _from_terms((2 * dr.einsum("ibj->bij") - dr.einsum("ijb->bij")) / -6, 2)


def contracted_second_derivative(mt: MetricTaylor):
    """d_a d_d g^{ab}; linear term (2/3) R_id,b xi^i for conformal-normal jets."""
    if not mt.jet.conformal_normal:
        raise ValueError("conformal-normal jet required")
    d2 = poly_diff(poly_diff(inverse_metric_taylor(mt).comps))
    return poly_truncate(d2.einsum("abadk->bdk"), 1)


def contracted_second_derivative_display(jet: CurvatureJet):
    dr = ricci_of(jet.R1)
    return _from_terms(dr.einsum("idb->bdi") * 2 / 3, 1)


def log_det_poly(mt: MetricTaylor):
    """log det g through degree 3 (= trace of g - delta there, since the
    perturbation starts at degree 2)."""
    return mt.comps.einsum("aak->k") * (DEGREE > 0)


def cnc_identity_suite(jet: CurvatureJet):
    """Residual report for the conformal-normal-coordinate identities."""
    dr = ricci_of(jet.R1)
    residuals = {
        "ricci_zero": ricci_of(jet.R0),
        "ricci_deriv_symmetrized": _cyclic_sum(dr),
        "scalar_gradient_zero": dr.einsum("iik->k"),
        # contracted second Bianchi: R_pijq,p = Ric_iq,j - Ric_ij,q
        "contracted_second_bianchi": jet.R1.einsum("pijqp->ijq")
        - (dr.einsum("iqj->ijq") - dr),
    }
    return {
        name: {"residual": r.abs_max(), "pass": not r.any()}
        for name, r in residuals.items()
    }


# ---------------------------------------------------------------------------
# blow-up metric


class PolynomialMetric:
    """Metric y -> g(eps * y) whose components g are exact polynomials of
    degree <= 3.

    Values and partials up to order 2 come from one ``_jet_table`` of the
    components, applied by ``_apply_jet_table``; the coefficients, times
    their exact powers of eps, stay exact until the table's single float
    conversion.  It offers the metric interface the
    geodesic and curvature code read: ``domain``, ``is_flat`` and ``jet``.
    """

    def __init__(self, comps, domain, eps=1.0):
        self.domain = domain
        self._table, self._shapes = _jet_table(comps, 2, eps)
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


def blowup_metric(jet: CurvatureJet, eps, half_width):
    """Rescaled metric g(eps*y) in y, as a ``PolynomialMetric``.

    Each coefficient of degree k is multiplied by the exact eps^k, so the
    quadratic terms scale by eps^2 and the cubic by eps^3 (the blow-up
    gauge), on the cube of the given half-width.  For eps = 0 or a zero jet
    the metric ``is_flat``, so the geodesic solver returns the Euclidean
    distance.
    """
    return PolynomialMetric(metric_taylor_from_jet(jet).comps, Box.cube(half_width), eps)
