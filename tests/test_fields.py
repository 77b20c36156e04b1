import itertools

import numpy as np
import pytest
import sympy as sp

from qcurv import fields
from qcurv.cnc import _MONOMIALS, ExactArray, PolynomialMetric
from qcurv.fields import (
    COORDS,
    Box,
    ChartError,
    DegenerateMetricError,
    DerivativeOrderError,
    MetricField,
    ScalarField,
    fd_jet,
    require_positive_definite,
)

x0, x1, x2, x3 = COORDS

# each exponent tuple's slot in cnc's coefficient vectors
_SLOT = {tuple(m): k for k, m in enumerate(_MONOMIALS.tolist())}


def test_box_contains_and_interior():
    box = Box.cube(2.0)
    assert box.contains((1.0, -1.0, 0.0, 1.9))
    assert not box.contains((2.5, 0.0, 0.0, 0.0))
    np.testing.assert_array_equal(
        box.contains(np.array([[2.0, 0.0, 0.0, 0.0], [0.0, -2.01, 0.0, 0.0]])), [True, False]
    )
    with pytest.raises(ChartError):
        box.require_interior((3.0, 0.0, 0.0, 0.0))


def test_scalar_partial_matches_hand_derivative():
    dom = Box.cube(3.0)
    f = ScalarField.from_expr(x0**2 * x1 + sp.sin(x2), dom)
    pts = np.array([[0.5, -1.0, 0.3, 0.0], [1.0, 2.0, -0.5, 0.7]])
    _, grad, hess = f.jet(pts, 2)
    np.testing.assert_allclose(grad[:, 0], 2 * pts[:, 0] * pts[:, 1], atol=1e-13)
    np.testing.assert_allclose(grad[:, 2], np.cos(pts[:, 2]), atol=1e-13)
    np.testing.assert_allclose(hess[:, 0, 1], 2 * pts[:, 0], atol=1e-13)


def test_fd_matches_analytic_derivatives():
    dom = Box.cube(3.0)
    fa = ScalarField.from_expr(sp.exp(x0) * sp.cos(x1) + x3**3, dom)

    def func(p):
        return np.exp(p[:, 0]) * np.cos(p[:, 1]) + p[:, 3] ** 3

    pts = np.array([[0.2, 0.4, -0.1, 0.3]])
    jet = fd_jet(func, pts, 3, 0.05)
    exact = fa.jet(pts, 3)
    for index in [(0,), (1, 1), (0, 1), (3, 3, 3)]:
        assert abs(exact[len(index)][(0,) + index] - jet[len(index)][(0,) + index]) < 1e-5


def test_fd_jet_is_symmetric_in_its_derivative_axes():
    def func(p):
        x, y, z, w = p.T
        return np.stack([np.sin(x * y) + z * w**2, np.exp(0.3 * x - w) * np.cos(y + z)], axis=-1)

    pts = np.array([[0.3, 0.5, -0.2, 0.4], [-0.7, 0.1, 0.6, -0.3]])
    jet = fd_jet(func, pts, 3, 0.02)
    assert [j.shape for j in jet] == [(2, 2) + (4,) * k for k in range(4)]
    np.testing.assert_array_equal(jet[0], func(pts))
    for k, arr in enumerate(jet):
        for perm in itertools.permutations(range(2, 2 + k)):
            assert np.array_equal(arr, arr.transpose((0, 1) + perm))


def test_derivative_order_capped():
    dom = Box.cube(1.0)
    f = ScalarField.from_expr(x0**6, dom)
    with pytest.raises(DerivativeOrderError):
        f.jet(np.zeros((1, 4)), 5)


def test_scalar_jet_copies_each_sorted_partial_to_its_permutations():
    dom = Box.cube(3.0)
    f = ScalarField.from_expr(sp.exp(x0 * x1) * sp.sin(x2) + x0 * x3**4 / (2 + x1**2), dom)
    pts = np.array([[0.5, -1.0, 0.3, 0.2], [1.0, 0.4, -0.5, 0.7], [0.0, 0.1, 0.9, -1.2]])
    jets = f.jet(pts, 4)
    assert [j.shape for j in jets] == [(3,) + (4,) * k for k in range(5)]
    for k, arr in enumerate(jets):
        for index in np.ndindex((4,) * k):
            sorted_index = (slice(None),) + tuple(sorted(index))
            assert np.array_equal(arr[(slice(None),) + index], arr[sorted_index])
    # a lower order gives the same leading jets; d_0 f by hand
    low = f.jet(pts, 2)
    assert len(low) == 3 and all(np.array_equal(a, b) for a, b in zip(low, jets))
    x, y, z, w = pts.T
    d0 = y * np.exp(x * y) * np.sin(z) + w**4 / (2 + y**2)
    np.testing.assert_allclose(jets[1][:, 0], d0, rtol=1e-14)


R2 = sum(c**2 for c in COORDS)

# one expression per node kind the Taylor evaluator expands, and the
# composite f of test_conformal_covariance_refines_at_stencil_order
_NODE_KINDS = {
    "add": x0 + 2 * x1 - x2 + x3 / 3,
    "mul": x0 * x1 * x2 * x3,
    "pow_int": (1 + x0 - x2) ** 5,
    "pow_negative": (2 + x1 * x3) ** -3,
    "pow_rational": (1 + x0**2 + x3) ** sp.Rational(3, 2),
    "exp": sp.exp(x0 * x2 - x1),
    "log": sp.log(3 + x0 * x1 + x3**2),
    "sin": sp.sin(2 * x0 + x1 * x3),
    "cos": sp.cos(x2 - x0 * x1),
    "constants": sp.Rational(3, 7) * x0 + sp.Float(0.25) * x1**2 + sp.pi,
    "composite": sp.exp(sp.Rational(1, 2) * sp.log(2 / (1 + R2))) * sp.sin(x0) / (1 + x1**2)
    + sp.cos(x2 * x3) ** 3,
    "criterion_6_f": x0**2 * x1 + x2,
}


@pytest.mark.parametrize("expr", _NODE_KINDS.values(), ids=_NODE_KINDS.keys())
def test_taylor_partials_match_sympy_to_order_four(expr):
    pts = np.random.default_rng(7).uniform(-0.6, 0.6, (6, 4))
    field = ScalarField(Box.cube(1.0), expr)
    jets = field.jet(pts, 4)
    # each sorted multi-index is the partial of its prefix by its last axis
    parts = {(): expr}
    for k in range(1, 5):
        for index in itertools.combinations_with_replacement(range(4), k):
            parts[index] = sp.diff(parts[index[:-1]], COORDS[index[-1]])
    values = sp.lambdify(COORDS, list(parts.values()))(*pts.T)
    for index, value in zip(parts, values):
        want = np.broadcast_to(value, len(pts))
        got = jets[len(index)][(slice(None),) + index]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), index


@pytest.mark.parametrize(
    "expr", [sp.atan(x0), x0 ** x1, sp.Symbol("y") * x0], ids=["atan", "power", "symbol"]
)
def test_scalar_field_refuses_what_it_cannot_expand(expr):
    with pytest.raises(ValueError):
        ScalarField(Box.cube(1.0), expr)


def test_fd_partial_polynomial_exact_to_stencil_order():
    def func(p):
        return p[:, 0] ** 4 + p[:, 1] ** 2 * p[:, 2]

    # the 5-point order-4 stencil differentiates quartics exactly
    val = fd_jet(func, np.array([[1.0, 2.0, 3.0, 0.0]]), 2, 0.1)[2][0, 0, 0]
    assert abs(val - 12.0) < 1e-9


def test_metric_symmetry_and_degeneracy():
    # a factor times delta: every jet is symmetric in (a, b) by construction
    bad = MetricField(Box.cube(2.0), x0)
    pts = np.array([[1e-12, 0.0, 0.0, 0.0], [0.5, 0.2, -0.1, 0.3]])
    for j in bad.jet(pts, 2):
        assert np.array_equal(j, np.swapaxes(j, 1, 2))
    with pytest.raises(DegenerateMetricError):
        require_positive_definite(bad.jet(pts, 0)[0], pts)


def _polynomial_metric(entries, den):
    """delta + ``{(a, b): {monomial: numerator}}`` / ``den`` with g_ba = g_ab,
    as an exact ``PolynomialMetric``."""
    comps = np.zeros((4, 4, 35), dtype=np.int64)
    comps[..., 0] = den * np.eye(4, dtype=np.int64)
    for (a, b), terms in entries.items():
        for m, c in terms.items():
            comps[a, b, _SLOT[m]] += c
            if a != b:
                comps[b, a, _SLOT[m]] += c
    return PolynomialMetric(ExactArray(comps, den), Box.cube(2.0))


def test_metric_jet_layout():
    dom = Box.cube(2.0)
    # delta + x0^2 in g_11: not conformally flat
    gm = _polynomial_metric({(1, 1): {(2, 0, 0, 0): 1}}, 1)
    pts = np.array([[0.5, 0.0, 0.0, 0.0]])
    gval, dg = gm.jet(pts, 1)
    assert gval.shape == (1, 4, 4) and dg.shape == (1, 4, 4, 4)
    assert abs(dg[0, 1, 1, 0] - 1.0) < 1e-12  # d_0 g_11 = 2 x0
    assert np.max(np.abs(MetricField.flat(dom).jet(pts, 2)[1])) == 0.0


# f delta with f = 1 + x0^2/10 + x1 x2/20 - x3^3/30, in both metric types
_FACTOR = 1 + x0**2 / 10 + x1 * x2 / 20 - x3**3 / 30
_FACTOR_TERMS = {(2, 0, 0, 0): 6, (0, 1, 1, 0): 3, (0, 0, 0, 3): -2}  # (f - 1) * 60


@pytest.mark.parametrize(
    "metric",
    [
        lambda: MetricField(Box.cube(2.0), _FACTOR),
        lambda: _polynomial_metric({(a, a): _FACTOR_TERMS for a in range(4)}, 60),
    ],
    ids=["MetricField", "PolynomialMetric"],
)
def test_both_metric_types_share_the_jet_interface(metric):
    g = metric()
    pts = np.array([[0.5, -0.3, 0.2, 0.7], [-1.0, 0.4, 1.5, -0.2]])
    f0, f1, f2 = ScalarField(Box.cube(2.0), _FACTOR).jet(pts, 2)
    eye = np.eye(4)
    want = [
        np.einsum("n,ab->nab", f0, eye),
        np.einsum("nc,ab->nabc", f1, eye),
        np.einsum("ncd,ab->nabcd", f2, eye),
    ]
    jets = g.jet(pts, 2)
    assert [j.shape for j in jets] == [(2, 4, 4), (2, 4, 4, 4), (2, 4, 4, 4, 4)]
    for got, exp in zip(jets, want):
        assert np.max(np.abs(got - exp)) < 1e-14
    assert np.array_equal(g.jet(pts, 0)[0], jets[0]) and not g.is_flat
    with pytest.raises(DerivativeOrderError):
        g.jet(pts, 3)


def test_flat_metric_flag():
    dom = Box.cube(2.0)
    assert MetricField.flat(dom).is_flat
    assert not MetricField(dom, 2).is_flat


def test_stencil_engine_exact_on_polynomial_with_one_evaluation(monkeypatch):
    def poly(p):
        x, y, z, w = p.T
        return x**4 * y**3 + 2 * x**2 * y * w - y**4 * z + 3 * w

    seen = []

    def func(p):
        seen.append(p.copy())
        return poly(p)

    def sizes():
        return [len(p) for p in seen]

    pts = np.array([[0.5, -1.0, 0.3, 2.0], [1.2, 0.7, -0.4, 0.0]])
    jet = fd_jet(func, pts, 3, 0.1)
    d01, d001 = jet[2][:, 0, 1], jet[3][:, 0, 0, 1]
    x, y, z, w = pts.T
    # the 5-point stencils are exact up to degree 4 (first) and 5 (second)
    np.testing.assert_allclose(d01, 12 * x**3 * y**2 + 4 * x * w, rtol=0, atol=1e-10)
    np.testing.assert_allclose(d001, 36 * x**2 * y**2 + 4 * w, rtol=0, atol=1e-9)
    # every index shares one evaluation on the union of its stencil points,
    # one point per integer offset: to order 2 the center, 4 per axis off
    # it and 16 off the axes in each of the 6 coordinate planes.  The union
    # passes through func in order, in blocks of at most FD_BLOCK points
    union = 385 * len(pts)
    assert len(seen) == -(-union // fields.FD_BLOCK) and sum(sizes()) == union
    assert max(sizes()) <= fields.FD_BLOCK
    # one block of the whole union sees the same points in the same order
    # and gives the same bits
    blocks, seen[:] = seen[:], []
    monkeypatch.setattr(fields, "FD_BLOCK", 10**9)
    whole = fd_jet(func, pts, 3, 0.1)
    assert sizes() == [union] and np.array_equal(seen[0], np.concatenate(blocks))
    assert all(np.array_equal(a, b) for a, b in zip(jet, whole))
    monkeypatch.undo()
    seen.clear()
    low = fd_jet(func, pts, 2, 0.1)
    assert sizes() == [(1 + 16 + 96) * len(pts)]
    # a partial left out of ``indices`` is an exact zero and costs no point;
    # the ones kept carry the same bits
    star = fd_jet(func, pts, 2, 0.1, [(), (0,), (1,), (2,), (3,), (0, 0), (1, 1), (2, 2), (3, 3)])
    assert sizes()[1:] == [17 * len(pts)]
    assert np.array_equal(star[1], low[1])
    diag = np.eye(4, dtype=bool)
    assert np.array_equal(star[2][:, diag], low[2][:, diag])
    assert np.all(star[2][:, ~diag] == 0.0) and np.all(low[2][:, ~diag] != 0.0)
    # a first derivative has four taps: the centre, of weight 0, is no point
    first = fd_jet(func, pts, 1, 0.1, [(0,), (1,), (2,), (3,)])
    assert sizes()[2:] == [16 * len(pts)]
    assert np.array_equal(first[1], fd_jet(func, pts, 1, 0.1)[1])
    assert sizes()[3:] == [17 * len(pts)]
    # a point alone gets the same value as in the batch
    for p, want in zip(pts, d001):
        assert fd_jet(poly, p[None, :], 3, 0.1)[3][0, 0, 0, 1] == want
