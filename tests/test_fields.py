import numpy as np
import pytest
import sympy as sp

from qcurv.fields import (
    COORDS,
    Box,
    ChartError,
    DegenerateMetricError,
    DerivativeOrderError,
    MetricField,
    ScalarField,
    fd_partials,
)

x0, x1, x2, x3 = COORDS


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
    np.testing.assert_allclose(f.partial(pts, (0,)), 2 * pts[:, 0] * pts[:, 1], atol=1e-13)
    np.testing.assert_allclose(f.partial(pts, (2,)), np.cos(pts[:, 2]), atol=1e-13)
    np.testing.assert_allclose(f.partial(pts, (0, 1)), 2 * pts[:, 0], atol=1e-13)


def test_fd_matches_analytic_derivatives():
    dom = Box.cube(3.0)
    fa = ScalarField.from_expr(sp.exp(x0) * sp.cos(x1) + x3**3, dom)

    def func(p):
        return np.exp(p[:, 0]) * np.cos(p[:, 1]) + p[:, 3] ** 3

    pts = np.array([[0.2, 0.4, -0.1, 0.3]])
    indices = [(0,), (1, 1), (0, 1), (3, 3, 3)]
    for index, fd in zip(indices, fd_partials(func, pts, indices, 0.05)):
        assert abs(fa.partial(pts, index)[0] - fd[0]) < 1e-5


def test_mixed_partials_symmetric():
    def func(p):
        return np.sin(p[:, 0] * p[:, 1]) + p[:, 2] * p[:, 3] ** 2

    pts = np.array([[0.3, 0.5, -0.2, 0.4]])
    d01, d10 = fd_partials(func, pts, [(0, 1), (1, 0)], 0.02)
    assert abs(d01[0] - d10[0]) < 1e-10


def test_derivative_order_capped():
    dom = Box.cube(1.0)
    f = ScalarField.from_expr(x0**6, dom)
    with pytest.raises(DerivativeOrderError):
        f.partial(np.zeros((1, 4)), (0,) * 5)


def test_fd_partial_polynomial_exact_to_stencil_order():
    def func(p):
        return p[:, 0] ** 4 + p[:, 1] ** 2 * p[:, 2]

    # the 5-point order-4 stencil differentiates quartics exactly
    val = fd_partials(func, np.array([[1.0, 2.0, 3.0, 0.0]]), [(0, 0)], 0.1)[0][0]
    assert abs(val - 12.0) < 1e-9


def test_metric_symmetry_and_degeneracy():
    dom = Box.cube(2.0)
    skew = sp.Matrix(4, 4, lambda a, b: x0 if (a, b) == (0, 1) else sp.Integer(a == b))
    with pytest.raises(ValueError):
        MetricField.from_exprs(skew, dom)

    bad = MetricField.from_exprs(sp.diag(x0, 1, 1, 1), dom)
    with pytest.raises(DegenerateMetricError):
        bad.eval(np.array([1e-12, 0.0, 0.0, 0.0]))


def test_metric_jet_layout():
    dom = Box.cube(2.0)
    g = MetricField.from_exprs(sp.eye(4) + sp.Matrix(4, 4, lambda a, b: 0), dom)
    gm = MetricField.from_exprs(
        sp.Matrix(4, 4, lambda a, b: sp.Integer(a == b) + (x0**2 if (a, b) == (1, 1) else 0)),
        dom,
    )
    pts = np.array([[0.5, 0.0, 0.0, 0.0]])
    gval, dg = gm.jet(pts, 1)
    assert gval.shape == (1, 4, 4) and dg.shape == (1, 4, 4, 4)
    assert abs(dg[0, 1, 1, 0] - 1.0) < 1e-12  # d_0 g_11 = 2 x0
    assert np.max(np.abs(g.jet(pts, 2)[1])) == 0.0


def test_flat_metric_flag():
    dom = Box.cube(2.0)
    assert MetricField.flat(dom).is_flat
    assert not MetricField.from_exprs(2 * sp.eye(4), dom).is_flat


def test_stencil_engine_exact_on_polynomial_with_one_evaluation():
    def poly(p):
        x, y, z, w = p.T
        return x**4 * y**3 + 2 * x**2 * y * w - y**4 * z + 3 * w

    seen = []

    def func(p):
        seen.append(len(p))
        return poly(p)

    pts = np.array([[0.5, -1.0, 0.3, 2.0], [1.2, 0.7, -0.4, 0.0]])
    d01, d001 = fd_partials(func, pts, [(0, 1), (0, 0, 1)], 0.1)
    x, y, z, w = pts.T
    # the 5-point stencils are exact up to degree 4 (first) and 5 (second)
    np.testing.assert_allclose(d01, 12 * x**3 * y**2 + 4 * x * w, rtol=0, atol=1e-10)
    np.testing.assert_allclose(d001, 36 * x**2 * y**2 + 4 * w, rtol=0, atol=1e-9)
    # both indices share one 5 x 5 stencil, evaluated once for both points
    assert seen == [25 * len(pts)]
    # a point alone gets the same value as in the batch
    for p, want in zip(pts, d001):
        assert fd_partials(poly, p[None, :], [(0, 0, 1)], 0.1)[0][0] == want
