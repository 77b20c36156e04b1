"""Coordinate-chart fields on 4-dimensional patches.

Fields are sympy expressions, evaluated by truncated Taylor arithmetic
(Taylor-mode differentiation, Griewank & Walther, *Evaluating
Derivatives*, ch. 13).  Each expression is read once into a straight-line
program of sums, products and the univariate functions exp, log, sin, cos
and constant powers; one run of it carries, at every point, each node's
Taylor coefficients c_alpha over the monomials of degree <= order in the
four coordinates (15 at order 2, 70 at order 4), in the slots of
``_taylor_tables``, the monomial table ``cnc``'s exact polynomials also
use.  A product gathers the monomial pairs of degree <= order; a function
phi of a node g with value g0 and nilpotent part h is the series
sum_k phi^(k)(g0) h^k / k!, and the partial for the multi-index alpha is
alpha! c_alpha.  An expression with anything else, or a symbol other than
the chart's, is refused when its field is built.

Every field and metric but ``ConstantField`` is read through
``jet(pts, order)``, which returns ``[value, first, second, ...]`` with
the derivative axes last.  A field the Pohozaev ball rule reads has
``polar_terms(r, dirs, order)``: for each order k, radial factors R_k,
r.shape + (B_k,), and a list A_k of B_k angular factors (d or 1, 4, ...,
4) of the unit directions ``dirs`` (d, 4), with part k at r_s n_d the
sum over b of R_k[s, b] A_k[b][d].  ``polar_jet`` expands them into the
Cartesian parts; ``ConstantField``, read only by the ball rule, has only
``polar_terms``.  A ``MetricField`` is conformally flat, g = f delta,
and is its factor f: a ``ScalarField`` whose jet to order 2 gives the
metric's.  Metrics that are not conformally flat are exact polynomials,
``cnc.PolynomialMetric``.  ``fd_jet`` is the centered finite-difference
jet of the quantities the curvature module computes, from order-4
stencils: four taps for a first derivative (the centre has weight 0),
five for a second.

sympy is imported on first use: the box, the errors, ``ConstantField``
and ``fd_jet`` need none of it, so a process that uses only those never
loads it.  ``COORDS``, the chart's sympy symbols, is built on first access.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

DIM = 4

# eigenvalue floor below which a metric is treated as degenerate
EIG_FLOOR = 1e-8


@functools.cache
def _coords():
    import sympy as sp

    return sp.symbols("x0 x1 x2 x3")


def __getattr__(name):
    if name == "COORDS":
        return _coords()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ChartError(RuntimeError):
    """Point outside the chart domain (or too close to its boundary)."""


class DegenerateMetricError(RuntimeError):
    """Metric not positive definite at an evaluation point."""


class DerivativeOrderError(ValueError):
    """Requested derivative order is not available."""


@dataclass(frozen=True)
class Box:
    """Axis-aligned box in chart coordinates."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        if len(self.lo) != DIM or len(self.hi) != DIM:
            raise ValueError("Box must be 4-dimensional")

    @classmethod
    def cube(cls, half_width):
        """The origin-centered cube of the given half-width."""
        h = float(half_width)
        return cls((-h,) * DIM, (h,) * DIM)

    def contains(self, x):
        """Whether ``x`` lies in the box; one flag per point for (n, 4)."""
        x = np.asarray(x, float)
        inside = np.all((x >= self.lo) & (x <= self.hi), axis=-1)
        return bool(inside) if inside.ndim == 0 else inside

    def require_interior(self, x):
        """Raise ChartError unless every point of ``x`` (one or (n, 4)) is inside."""
        inside = np.atleast_1d(self.contains(x))
        if not inside.all():
            bad = np.atleast_2d(np.asarray(x, float))[np.argmin(inside)]
            raise ChartError(f"point {bad} outside domain")


def require_positive_definite(g, pts):
    """Raise DegenerateMetricError unless every metric in ``g`` (n, 4, 4) at
    ``pts`` (n, 4) has its smallest eigenvalue above ``EIG_FLOOR``."""
    low = np.linalg.eigvalsh(g)[:, 0]
    if np.any(low <= EIG_FLOOR):
        i = int(np.argmin(low > EIG_FLOOR))
        raise DegenerateMetricError(
            f"metric eigenvalue {low[i]:.3e} below floor at {pts[i]}"
        )


# 5-point centered stencils, order-4 accurate, as (offsets, coefficients);
# the first derivative lists only its four nonzero taps
_D1 = (np.array([-2, -1, 1, 2]), np.array([1.0, -8.0, 8.0, -1.0]) / 12.0)
_D2 = (np.array([-2, -1, 0, 1, 2]), np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0)


# stencil points pass through the evaluated function in blocks of this size,
# which bounds what a block builds: the curvature kernel's temporaries (d2g,
# h, gg and r) take about 10 KB per point, so about 5 MB per block
FD_BLOCK = 512


def _stages(index):
    """The stencils a multi-index is differentiated with, outermost first.

    Axes are taken in order of first appearance.  A repeated axis uses the
    second-derivative stencil directly, so (0, 0) is one stage and not two
    nested first-derivative stencils; a higher multiplicity peels one
    first-derivative stencil off and keeps the axis in front.  Each stage
    is ``(axis, offsets, coefficients, power of the step)``.
    """
    stages = []
    index = tuple(index)
    while index:
        ax = index[0]
        mult = index.count(ax)
        rest = tuple(a for a in index if a != ax)
        if mult == 2:
            stages.append((ax, *_D2, 2))
            index = rest
        else:
            stages.append((ax, *_D1, 1))
            index = (ax,) * (mult - 1) + rest
    return stages


def _symmetric_jet(order, derivative):
    """``[value, first, ...]`` up to ``order``, derivative axes last, from
    ``derivative(index)`` called once per sorted multi-index."""
    jets = []
    for k in range(order + 1):
        part = {i: derivative(i) for i in itertools.combinations_with_replacement(range(DIM), k)}
        arr = np.stack([part[tuple(sorted(i))] for i in np.ndindex((DIM,) * k)], axis=-1)
        jets.append(arr.reshape(arr.shape[:-1] + (DIM,) * k))
    return jets


def fd_jet(func, pts, order, step, indices=None):
    """Centered finite-difference jet of ``func`` up to ``order``.

    ``func`` maps points (m, 4) to values (m, ...); ``pts`` is (n, 4) and
    ``step`` a scalar or one step per point.  Only the sorted multi-indices
    in ``indices`` (by default all up to ``order``) are differentiated; any
    other partial comes back as an exact 0.0.  The function is evaluated
    once on the union of their stencil points, one per integer offset with
    a nonzero weight, in blocks of ``FD_BLOCK``, and each is contracted one
    stage at a time from the innermost out, with left-to-right sums over
    the stage's taps: four for a first derivative, five for a second.
    Returns ``[value, first, ...]``, the k derivative axes of ``jet[k]`` last.
    """
    pts = np.atleast_2d(np.asarray(pts, float))
    step = np.asarray(step, float)
    todo = [
        index for k in range(order + 1)
        for index in itertools.combinations_with_replacement(range(DIM), k)
        if indices is None or index in indices
    ]
    plans = [_stages(index) for index in todo]
    leaves, where, slots = [], {}, []
    for stages in plans:
        ids = []
        for ks in itertools.product(*(offsets for _, offsets, _, _ in stages)):
            shift = [0] * DIM
            for (ax, _, _, _), k in zip(stages, ks):
                shift[ax] += k
            key = tuple(shift)
            if key not in where:
                where[key] = len(leaves)
                y = pts.copy()
                for ax in np.flatnonzero(shift):
                    y[:, ax] += shift[ax] * step
                leaves.append(y)
            ids.append(where[key])
        slots.append(ids)
    flat = np.concatenate(leaves)
    vals = np.concatenate(
        [np.asarray(func(flat[i : i + FD_BLOCK]), float) for i in range(0, len(flat), FD_BLOCK)]
    )
    vals = vals.reshape((len(leaves), len(pts)) + vals.shape[1:])
    h = step.reshape(step.shape + (1,) * (vals.ndim - 2))
    out = {}
    for index, stages, ids in zip(todo, plans, slots):
        taps = tuple(len(offsets) for _, offsets, _, _ in stages)
        v = vals[ids].reshape(taps + vals.shape[1:])
        for depth in reversed(range(len(stages))):
            _, _, coef, power = stages[depth]
            acc = 0
            for k, c in enumerate(coef):
                acc = acc + c * v[(slice(None),) * depth + (k,)]
            v = acc / h**power
        out[index] = v
    zero = np.zeros(vals.shape[1:])
    return _symmetric_jet(order, lambda index: out.get(index, zero))


@functools.cache
def _taylor_tables(order):
    """The monomials of degree <= ``order`` and the gathers of their product.

    The package's one monomial basis; ``cnc``'s is the order-3 instance.
    Monomials are exponent vectors in ``itertools.product`` order, the
    constant first, so a lower order's are not a prefix of a higher one's
    but keep their relative order.  The pairs of monomials whose degrees
    sum to <= ``order`` are sorted by their product's slot and then by
    their own slots, so each product slot's run opens with (1, itself) and
    is the same at every order that has it: a lower order's jets have the
    bits of a higher order's leading jets.  Returns the (slots, 4)
    exponents, each sorted multi-index's slot, each slot's alpha!, the
    sorted (product, left, right) pairs, where each product slot's run
    starts, and one pass per later rank r in a run: the product slots with
    an r-th pair, and the left and right slots of those pairs.
    """
    exps = [e for e in itertools.product(range(order + 1), repeat=DIM) if sum(e) <= order]
    slot = {tuple(a for a, n in enumerate(e) for _ in range(n)): k for k, e in enumerate(exps)}
    fact = np.array([math.prod(map(math.factorial, e)) for e in exps], float)
    pairs = np.array(sorted(
        (slot[tuple(sorted(a + b))], j, k)
        for a, j in slot.items()
        for b, k in slot.items()
        if len(a) + len(b) <= order
    ))
    starts = np.flatnonzero(np.diff(pairs[:, 0], prepend=-1))
    rank = np.arange(len(pairs)) - np.repeat(starts, np.diff(starts, append=len(pairs)))
    passes = [tuple(pairs[rank == r].T) for r in range(1, rank.max() + 1)]
    return np.array(exps), slot, fact, pairs, starts, passes


@functools.lru_cache(maxsize=None)
def _program(expr):
    """The sympy scalar ``expr`` as straight-line Taylor operations.

    Returns ``(ops, top)``: each op is ``(kind, param, args)`` and reads
    the values of earlier ops by position; ``top`` is the position of the
    result, or the expression's float when it has no free symbol.  Constant
    subexpressions are folded to floats, into the parameter of the sum or
    product that holds them.  Raises ValueError for a symbol outside the
    chart, a non-constant exponent, or a function without a series here.
    """
    import sympy as sp

    coords = _coords()
    funcs = {sp.exp: "exp", sp.log: "log", sp.sin: "sin", sp.cos: "cos"}
    ops = []

    def emit(*op):
        ops.append(op)
        return len(ops) - 1

    @functools.cache
    def visit(node):
        if not node.free_symbols:
            return float(node)
        if node.is_Symbol:
            if node not in coords:
                raise ValueError(f"symbol {node} is not a chart coordinate {coords}")
            return emit("coord", coords.index(node), None)
        if node.is_Add or node.is_Mul:
            parts = [visit(a) for a in node.args]
            consts = [p for p in parts if isinstance(p, float)]
            c = math.fsum(consts) if node.is_Add else math.prod(consts)
            kind = "add" if node.is_Add else "mul"
            return emit(kind, c, tuple(p for p in parts if not isinstance(p, float)))
        if node.is_Pow and not node.exp.free_symbols:
            return emit("pow", float(node.exp), visit(node.base))
        if node.func in funcs:
            return emit(funcs[node.func], None, visit(node.args[0]))
        raise ValueError(f"no Taylor series for {node} in {expr}")

    top = visit(expr)
    return tuple(ops), top


def _derivatives(kind, p, g0, order):
    """phi^(k)(g0) for k = 0..``order``, phi the function ``kind`` names
    (x**p for "pow")."""
    if kind == "exp":
        return [np.exp(g0)] * (order + 1)
    if kind == "log":
        return [np.log(g0)] + [
            (-1) ** (k - 1) * math.factorial(k - 1) / g0**k for k in range(1, order + 1)
        ]
    if kind in ("sin", "cos"):
        s, c = np.sin(g0), np.cos(g0)
        cycle = (s, c, -s, -c) if kind == "sin" else (c, -s, -c, s)
        return [cycle[k % 4] for k in range(order + 1)]
    # p (p - 1) ... (p - k + 1) g0^(p - k), an exact 0 once a factor is 0
    out, fall = [], 1.0
    for k in range(order + 1):
        out.append(fall * g0 ** (p - k) if fall else 0.0)
        fall *= p - k
    return out


def _taylor(expr, pts, order):
    """Taylor coefficients of the sympy ``expr`` about each of ``pts``
    (n, 4): (slots, n), in ``_taylor_tables(order)``'s slots."""
    _, slot, _, _, _, passes = _taylor_tables(order)
    ops, top = _program(expr)

    def mul(p, q):
        # each slot's sum in the order of its pairs, one rank at a time
        out = p[0] * q
        for prod, left, right in passes:
            out[prod] += p[left] * q[right]
        return out

    vals = []
    for kind, param, args in ops:
        if kind == "coord":
            v = np.zeros((len(slot), len(pts)))
            v[0] = pts[:, param]
            if order:
                v[slot[(param,)]] = 1.0
        elif kind == "add":
            v = sum(vals[a] for a in args)
            v[0] += param
        elif kind == "mul":
            v = param * functools.reduce(mul, (vals[a] for a in args))
        else:
            # Horner in the nilpotent part h: c_0 + h (c_1 + h (c_2 + ...));
            # the innermost step, c_(order-1) + h c_order, is a scaling, and
            # at order 0 (h = 0) the value is c_0
            h = vals[args].copy()
            c = [
                d / math.factorial(k)
                for k, d in enumerate(_derivatives(kind, param, h[0], order))
            ]
            h[0] = 0.0
            v = h * c[order]
            v[0] = c[order - 1] if order else c[0]
            for k in reversed(range(order - 1)):
                v = mul(h, v)
                v[0] += c[k]
        vals.append(v)
    if isinstance(top, float):
        out = np.zeros((len(slot), len(pts)))
        out[0] = top
        return out
    return vals[top]


class ScalarField:
    """Real field given by a sympy expression on a chart box, with partial
    derivatives up to order 4 from its Taylor coefficients."""

    def __init__(self, domain, expr):
        import sympy as sp

        self.domain = domain
        self.expr = sp.sympify(expr)
        _program(self.expr)  # refuses here what it cannot expand

    @classmethod
    def from_expr(cls, expr, domain):
        return cls(domain, expr)

    def jet(self, pts, order):
        """``[value, gradient, Hessian, ...]`` up to ``order`` (at most 4),
        derivative axes last: ``jet[k][n, a1, ..., ak]`` is the partial for
        the multi-index (a1, ..., ak), read from one set of Taylor
        coefficients and copied to its permutations.
        """
        if order > 4:
            raise DerivativeOrderError("derivatives available up to order 4")
        coef = _taylor(self.expr, np.atleast_2d(np.asarray(pts, float)), order)
        _, slot, fact, _, _, _ = _taylor_tables(order)
        return _symmetric_jet(order, lambda index: fact[slot[index]] * coef[slot[index]])


def polar_points(r, dirs):
    """The points r * dirs as (n, 4): radii ``r`` broadcast against the
    leading axes of the unit directions ``dirs``, joined in C order."""
    return (np.asarray(r, float)[..., None] * dirs).reshape(-1, DIM)


def _expand(R, A, k):
    """Part k, the sum over b of R[..., b] A[b] added left to right: radial
    factors R (..., B) broadcast against angular factors A[b] (..., 4, ...,
    4).  A pair A[b] = (F, G) is the term (R_b F) G, which keeps the bits of
    that product and keeps F G out of the terms (see RadialProfileField); no
    terms give zeros."""
    out = np.zeros(R.shape[:-1] + (DIM,) * k) if not A else None
    for b, ang in enumerate(A):
        F, G = ang if isinstance(ang, tuple) else (ang, None)
        t = R[(..., b) + (None,) * k] * F
        t = t if G is None else t * G
        out = t if out is None else np.add(out, t, out=out if out.shape == t.shape else None)
    return out


def polar_jet(field, r, dirs, order):
    """``[value, first, ...]`` up to ``order`` of ``field`` at the points
    r dirs, its ``polar_terms`` expanded, the leading axes of the radii
    ``r`` and of the directions ``dirs`` (n, 4) broadcast together."""
    return [_expand(R, A, k) for k, (R, A) in enumerate(field.polar_terms(r, dirs, order))]


class ConstantField:
    """The constant c, with every derivative zero; it needs no sympy."""

    def __init__(self, c):
        self.c = float(c)

    def polar_terms(self, r, dirs, order):
        """The one term [c] x [1] of the value and no term of a derivative,
        up to ``order``, at the points r dirs."""
        shape = np.shape(r)
        return [(np.full(shape + (1,), self.c), [np.ones(1)])] + [(np.empty(shape + (0,)), [])] * order


class MetricField:
    """Conformally flat metric g = f delta on a chart box, stored as its
    factor f, a sympy expression."""

    def __init__(self, domain, factor):
        self.domain = domain
        self.factor = ScalarField(domain, factor)
        self.is_flat = self.factor.expr == 1

    @classmethod
    def flat(cls, domain):
        return cls(domain, 1)

    def jet(self, pts, order):
        """Metric derivative jet ``[g, dg, d2g]`` up to ``order``.

        Derivative axes come last, so ``dg[n, a, b, c] = d_c g_ab`` and
        ``d2g[n, a, b, c, d] = d_c d_d g_ab``; the factor's jet sits on the
        (a, a) diagonal.
        """
        if order > 2:
            raise DerivativeOrderError("metric derivatives available up to order 2")
        diag = np.arange(DIM)
        jets = []
        for k, part in enumerate(self.factor.jet(pts, order)):
            arr = np.zeros((part.shape[0], DIM, DIM) + (DIM,) * k)
            arr[:, diag, diag] = part[:, None]
            jets.append(arr)
        return jets
