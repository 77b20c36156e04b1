"""Coordinate-chart fields on 4-dimensional patches.

Fields are sympy expressions: each partial derivative (the value is the
partial for the empty multi-index) is taken symbolically and compiled
(lambdified) once per distinct expression per process, shared by every
field that needs it.  Every field and metric is read through
``jet(pts, order)``, which returns ``[value, first, second, ...]`` with
the derivative axes last.  A ``MetricField`` is conformally flat,
g = f delta, and is its factor f: a ``ScalarField`` whose jet to order 2
gives the metric's.  Metrics that are not conformally flat are exact
polynomials, ``cnc.PolynomialMetric``.  ``fd_jet`` is the centered
finite-difference jet of the quantities the curvature module computes,
from order-4 stencils: four taps for a first derivative (the centre has
weight 0), five for a second.

sympy is imported on first use: the box, the errors, ``ConstantField``
and ``fd_jet`` need none of it, so a process that uses only those never
loads it.  ``COORDS``, the chart's sympy symbols, is built on first access.
"""

from __future__ import annotations

import functools
import itertools
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
# which bounds the metric jets a block builds: Q over the (12, 6, 6) sphere
# quadrature differentiates at 293k stencil points
FD_BLOCK = 4096


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


def _symmetric_jet(order, partial):
    """``[value, first, ...]`` up to ``order``, derivative axes last, from
    ``partial(index)`` called once per sorted multi-index."""
    jets = []
    for k in range(order + 1):
        part = {i: partial(i) for i in itertools.combinations_with_replacement(range(DIM), k)}
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


@functools.lru_cache(maxsize=None)
def _compiled(expr, index):
    """The partial of the sympy scalar ``expr`` for the sorted multi-index
    ``index`` (``()`` for the value), compiled to a vectorized function of
    points (n, 4).

    A partial is looked up again by its own expression, so identical
    derivatives of different fields share one compiled function.
    """
    import sympy as sp

    coords = _coords()
    if index:
        for ax in index:
            expr = sp.diff(expr, coords[ax])
        return _compiled(expr, ())
    f = sp.lambdify(coords, expr, modules=[np])

    def call(pts):
        pts = np.atleast_2d(np.asarray(pts, float))
        out = f(pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3])
        return np.broadcast_to(np.asarray(out, float), (pts.shape[0],)).copy()

    return call


class ScalarField:
    """Real field given by a sympy expression on a chart box, with partial
    derivatives up to order 4."""

    def __init__(self, domain, expr):
        import sympy as sp

        self.domain = domain
        self.expr = sp.sympify(expr)

    @classmethod
    def from_expr(cls, expr, domain):
        return cls(domain, expr)

    def partial(self, pts, index):
        """Partial derivative for multi-index ``index`` at each point."""
        if len(index) > 4:
            raise DerivativeOrderError("derivatives available up to order 4")
        return _compiled(self.expr, tuple(sorted(index)))(pts)

    def jet(self, pts, order):
        """``[value, gradient, Hessian, ...]`` up to ``order`` (at most 4),
        derivative axes last: ``jet[k][n, a1, ..., ak]`` is the partial for
        the multi-index (a1, ..., ak).  Each distinct sorted multi-index is
        evaluated once through ``partial`` and copied to its permutations.
        """
        if order > 4:
            raise DerivativeOrderError("derivatives available up to order 4")
        pts = np.atleast_2d(np.asarray(pts, float))
        return _symmetric_jet(order, lambda index: self.partial(pts, index))


class ConstantField:
    """The constant c, with every derivative zero; it needs no sympy."""

    def __init__(self, c):
        self.c = float(c)

    def jet(self, pts, order):
        n = len(np.atleast_2d(pts))
        return [np.full(n, self.c)] + [np.zeros((n,) + (DIM,) * k) for k in range(1, order + 1)]


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
