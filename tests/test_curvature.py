import math
import tracemalloc

import numpy as np
import pytest
import sympy as sp

import qcurv.curvature as curvature
import qcurv.fields as fields
from qcurv.curvature import (
    check_conformal_covariance,
    conformal_transform,
    gauss_bonnet_check,
    laplace_beltrami,
    paneitz_apply,
    q_curvature,
    riemann_of_metric,
    weyl_norm_sq,
    weyl_tensor,
)
from qcurv.cnc import _MONOMIALS, ExactArray, PolynomialMetric
from qcurv.fields import (
    COORDS,
    Box,
    ChartError,
    DegenerateMetricError,
    MetricField,
    ScalarField,
    fd_jet,
)
from qcurv.models import SphereModel, sphere_metric

x0, x1, x2, x3 = COORDS
R2 = sum(c**2 for c in COORDS)

# each exponent tuple's slot in cnc's coefficient vectors
_SLOT = {tuple(m): k for k, m in enumerate(_MONOMIALS.tolist())}


def _symmetry_residual(riem):
    """The largest violation of the algebraic symmetries of the lowered
    Riemann tensor (both antisymmetries, pair symmetry, first Bianchi),
    over every point of ``riem``."""
    r = riem.components
    residuals = [
        r + np.einsum("...abcd->...bacd", r),
        r + np.einsum("...abcd->...abdc", r),
        r - np.einsum("...abcd->...cdab", r),
        r + np.einsum("...abcd->...acdb", r) + np.einsum("...abcd->...adbc", r),
    ]
    return max(float(np.max(np.abs(t))) for t in residuals)


def _weyl_trace_residual(w, g):
    """Max magnitude over all single g^{-1}-contractions of a Weyl candidate."""
    gi = np.linalg.inv(g)
    worst = 0.0
    for axes in [(0, 2), (0, 3), (1, 2), (1, 3), (0, 1), (2, 3)]:
        sub = "abcd"
        spec = sub[axes[0]] + sub[axes[1]]
        tr = np.einsum(f"{spec},abcd->" + "".join(
            ch for ch in sub if ch not in spec), gi, w)
        worst = max(worst, float(np.max(np.abs(tr))))
    return worst


def _q_transformation_residual(g, u, pts, step=None):
    """Max over ``pts`` of |P_g u + 2 Q_g - 2 Q_gt e^{4u}| for gt = e^{2u} g."""
    gt = conformal_transform(g, u)
    pts = np.atleast_2d(np.asarray(pts, float))
    lhs = paneitz_apply(g, u, pts, step=step) + 2.0 * q_curvature(g, pts, step=step)
    rhs = 2.0 * q_curvature(gt, pts, step=step) * np.exp(4.0 * u.jet(pts, 0)[0])
    return float(np.max(np.abs(lhs - rhs)))


def test_flat_metric_zero_curvature():
    g = MetricField.flat(Box.cube(2.0))
    riem = riemann_of_metric(g, np.array([0.3, -0.2, 0.1, 0.0]))
    assert np.max(np.abs(riem.components)) == 0.0
    assert riem.scalar == 0.0
    assert q_curvature(g, np.zeros(4)) == 0.0


def test_flat_shortcuts_check_the_chart():
    dom = Box.cube(1.0)
    g = MetricField.flat(dom)
    f = ScalarField.from_expr(x0**4, dom)
    x = np.array([2.0, 0.0, 0.0, 0.0])
    with pytest.raises(ChartError):
        q_curvature(g, x)
    with pytest.raises(ChartError):
        paneitz_apply(g, f, x)


def test_laplace_beltrami_checks_the_chart():
    # inside the box the chart's points are accepted, outside they raise as
    # riemann_of_metric does
    dom = Box.cube(1.0)
    g = sphere_metric(dom)
    u = ScalarField.from_expr(x0**2, dom)
    assert np.isfinite(laplace_beltrami(g, u, np.array([0.5, 0.0, 0.0, 0.0])))
    outside = np.array([2.0, 0.0, 0.0, 0.0])
    batch = np.array([[0.1, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, -1.5]])
    for x in (outside, batch):
        with pytest.raises(ChartError):
            riemann_of_metric(g, x)
        with pytest.raises(ChartError):
            laplace_beltrami(g, u, x)


def test_sphere_curvature_at_origin_and_off_origin():
    g = sphere_metric()
    for x in [np.zeros(4), np.array([0.4, -0.2, 0.1, 0.3])]:
        riem = riemann_of_metric(g, x)
        assert abs(riem.scalar - 12.0) < 1e-9
        assert np.max(np.abs(riem.ricci - 3.0 * riem.g)) < 1e-9
        assert _symmetry_residual(riem) <= 1e-9


def test_ricci_is_contracted_once():
    riem = riemann_of_metric(_sampled_metric(), _BATCH)
    ric = riem.ricci
    assert riem.ricci is ric
    assert np.array_equal(ric, np.einsum("...ac,...abcd->...bd", riem.g_inv, riem.components))


def _kulkarni_nomizu(h, k):
    """(h o k)_abcd = h_ac k_bd + h_bd k_ac - h_ad k_bc - h_bc k_ad, per point."""
    sym = np.einsum("nac,nbd->nabcd", h, k) + np.einsum("nbd,nac->nabcd", h, k)
    return sym - np.einsum("nabcd->nabdc", sym)


def test_riemann_matches_conformally_flat_closed_form():
    # g = e^{2w} delta has Rm = e^{2w} delta o (-hess w + dw dw - |dw|^2 delta / 2)
    # (Besse, Einstein Manifolds, 1.159); this w has non-constant curvature
    w = sp.log(2 / (1 + R2)) + sp.Rational(1, 20) / (1 + R2)
    g = MetricField(Box.cube(10.0), sp.exp(2 * w))
    pts = np.array([[0.0, 0.0, 0.0, 0.0], [0.3, -0.2, 0.1, 0.4], [1.5, -0.7, 0.2, 1.1]])
    wf = ScalarField.from_expr(w, g.domain)
    w0, dw, hw = wf.jet(pts, 2)
    eye = np.broadcast_to(np.eye(4), hw.shape)
    k = -hw + np.einsum("na,nb->nab", dw, dw) - 0.5 * np.sum(dw**2, axis=1)[:, None, None] * eye
    want = np.exp(2 * w0)[:, None, None, None, None] * _kulkarni_nomizu(eye, k)
    riem = riemann_of_metric(g, pts)
    for n in range(len(pts)):
        assert np.max(np.abs(riem.components[n] - want[n])) <= 1e-12 * np.max(np.abs(want[n]))
    assert np.ptp(riem.scalar) > 1e-3  # the scalar curvature varies: not a round sphere


def test_riemann_outside_domain_raises():
    g = sphere_metric(Box.cube(1.0))
    with pytest.raises(ChartError):
        riemann_of_metric(g, np.array([2.0, 0.0, 0.0, 0.0]))


def _exact_metric(matrix, half_width):
    """A sympy matrix of polynomials of degree <= 3 with rational
    coefficients, as an exact ``PolynomialMetric``."""
    terms = [[sp.Poly(e, *COORDS).terms() for e in row] for row in matrix.tolist()]
    den = math.lcm(*(int(c.q) for row in terms for entry in row for _, c in entry))
    comps = np.zeros((4, 4, 35), dtype=np.int64)
    for a, row in enumerate(terms):
        for b, entry in enumerate(row):
            for m, c in entry:
                comps[a, b, _SLOT[m]] = int(c * den)
    return PolynomialMetric(ExactArray(comps, den), Box.cube(half_width))


def test_perturbed_metric_matches_fd_oracle():
    g = _exact_metric(sp.eye(4) + sp.diag(x1**2, x2**2, x3**2, x0**2) / 10, 2.0)

    def gfun(p):
        return np.eye(4) + np.eye(4) * (p[:, [1, 2, 3, 0]] ** 2 / 10)[:, None, :]

    x = np.array([[0.3, 0.1, -0.2, 0.4]])
    g0, dg, d2g = g.jet(x, 2)
    _, fd1, fd2 = fd_jet(gfun, x, 2, 0.02)
    assert np.max(np.abs(g0 - gfun(x))) < 1e-15
    assert np.max(np.abs(dg - fd1)) < 1e-6
    assert np.max(np.abs(d2g - fd2)) < 1e-6
    assert np.max(np.abs(d2g)) > 0.1


def _random_quadratic_metric(rng, den=1000):
    """delta + sum_ij c_abij x_i x_j with c_abij = c_baij in [-0.1, 0.1],
    exact integer numerators over ``den``."""
    coef = rng.integers(-50, 51, (4, 4, 4, 4))
    coef = coef + coef.transpose(1, 0, 2, 3)
    comps = np.zeros((4, 4, 35), dtype=np.int64)
    comps[..., 0] = den * np.eye(4, dtype=np.int64)
    for i in range(4):
        for j in range(4):
            monomial = tuple(np.bincount([i, j], minlength=4).tolist())
            comps[..., _SLOT[monomial]] += coef[:, :, i, j]
    return PolynomialMetric(ExactArray(comps, den), Box.cube(2.0))


def test_riemann_symmetries_on_random_perturbations():
    # exact polynomial metrics: their jets carry no finite-difference error
    rng = np.random.default_rng(3)
    for _ in range(100):
        g = _random_quadratic_metric(rng)
        riem = riemann_of_metric(g, rng.uniform(-0.5, 0.5, 4))
        assert np.max(np.abs(riem.components)) > 1e-2
        assert _symmetry_residual(riem) <= 1e-10


def test_weyl_vanishes_on_constant_curvature():
    g = sphere_metric()
    riem = riemann_of_metric(g, np.array([0.2, 0.1, 0.0, -0.3]))
    w = weyl_tensor(riem)
    assert np.max(np.abs(w)) < 1e-9
    assert weyl_norm_sq(w, riem.g_inv) < 1e-18


def test_weyl_norm_matches_one_step_contraction():
    rng = np.random.default_rng(5)
    w = rng.standard_normal((50, 4, 4, 4, 4))
    a = rng.standard_normal((50, 4, 4))
    g = np.eye(4) + 0.3 * a @ np.swapaxes(a, 1, 2)
    gi = np.linalg.inv(g)
    w_up = np.einsum("nae,nbf,ncg,ndh,nefgh->nabcd", gi, gi, gi, gi, w)
    want = np.einsum("nabcd,nabcd->n", w, w_up)
    got = weyl_norm_sq(w, gi)
    assert got.shape == (50,)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13
    assert weyl_norm_sq(w[7], gi[7]) == pytest.approx(want[7], rel=1e-13)


def test_weyl_trace_free_on_generic_input():
    dom = Box.cube(2.0)
    g = _exact_metric(
        sp.eye(4) + sp.Matrix(4, 4, lambda a, b: (x0 * x1 if {a, b} == {0, 1} else 0)) / 5
        + sp.diag(x2**2, 0, x3**2, x1**2) / 7,
        2.0,
    )
    riem = riemann_of_metric(g, np.array([0.3, 0.2, -0.1, 0.25]))
    w = weyl_tensor(riem)
    assert np.max(np.abs(w)) > 1e-6  # genuinely non-conformally-flat
    assert _weyl_trace_residual(w, riem.g) < 1e-10


def test_q_curvature_sphere():
    g = sphere_metric()
    for x in [np.zeros(4), np.array([0.5, 0.0, -0.3, 0.2])]:
        assert abs(q_curvature(g, x) - 3.0) < 1e-6


def test_total_q_over_sphere():
    model = SphereModel(n_theta=12, n_u=6, n_phi=6)
    total = 3.0 * float(np.sum(model.quad_weights))
    assert abs(total - 8.0 * np.pi**2) < 0.01 * 8.0 * np.pi**2


def test_paneitz_on_constants_and_bubble():
    dom = Box.cube(20.0)
    g = MetricField.flat(dom)
    c = ScalarField(dom, 2.5)
    assert paneitz_apply(g, c, np.array([0.3, 0.1, 0.0, 0.0])) == 0.0

    rho = sp.sqrt(sp.Integer(1)) / (4 * sp.sqrt(3))
    u = ScalarField.from_expr(-sp.log(1 + rho * R2), dom)
    for x in [np.zeros(4), np.array([1.0, -2.0, 0.5, 3.0])]:
        lhs = paneitz_apply(g, u, x)
        rhs = 2.0 * np.exp(4.0 * u.jet(x, 0)[0][0])
        assert abs(lhs - rhs) < 1e-8


def test_paneitz_default_step_on_round_sphere():
    # P_g f = e^{-4w} Delta^2 f on g = e^{2w} delta, and Delta^2 f = 0 here
    g = sphere_metric()
    f = ScalarField.from_expr(x0**2 * x1 + x2, g.domain)
    assert abs(paneitz_apply(g, f, np.array([0.3, 0.1, -0.2, 0.4]))) < 1e-6


def test_flat_bilaplacian_of_sphere_factor():
    dom = Box.cube(10.0)
    g = MetricField.flat(dom)
    u = ScalarField.from_expr(sp.log(2 / (1 + R2)), dom)
    for x in [np.zeros(4), np.array([0.7, 0.2, -0.4, 0.1])]:
        assert abs(paneitz_apply(g, u, x) - 6.0 * np.exp(4.0 * u.jet(x, 0)[0][0])) < 1e-8


def test_laplace_beltrami_matches_sphere_closed_form():
    g = sphere_metric()
    dom = g.domain
    u = ScalarField.from_expr(x0, dom)
    x = np.array([0.2, 0.1, 0.0, -0.1])
    # Delta_g x0 for g = e^{2w} delta: e^{-2w}(Delta x0 + 2 grad w . grad x0)
    w = sp.log(2 / (1 + R2))
    lap = sp.exp(-2 * w) * 2 * sp.diff(w, x0)
    expected = float(sp.lambdify(COORDS, lap)(*x))
    assert abs(laplace_beltrami(g, u, x) - expected) < 1e-9


def test_conformal_transform_identity_and_sphere():
    dom = Box.cube(5.0)
    g = MetricField.flat(dom)
    zero = ScalarField(dom, 0.0)
    assert conformal_transform(g, zero).is_flat

    u = ScalarField.from_expr(sp.log(2 / (1 + R2)), dom)
    gs = conformal_transform(g, u)
    x = np.array([0.3, -0.2, 0.5, 0.1])
    expected = 4.0 / (1.0 + x @ x) ** 2 * np.eye(4)
    assert np.max(np.abs(gs.jet(x, 0)[0][0] - expected)) < 1e-12
    with pytest.raises(ValueError, match="domains"):
        conformal_transform(MetricField.flat(Box.cube(1.0)), u)


def test_criterion_6_sequence_neither_differentiates_nor_compiles_sympy(monkeypatch):
    # the fields are built before sympy's diff and lambdify are patched to
    # raise; every derivative after that comes from Taylor arithmetic
    dom = Box.cube(5.0)
    g = MetricField.flat(dom)
    u = ScalarField.from_expr(sp.log(2 / (1 + R2)), dom)
    f = ScalarField.from_expr(x0**2 * x1 + x2, dom)
    pts = np.array([[0.3, 0.1, -0.2, 0.4], [0.0, 0.5, 0.2, -0.1]])

    def forbidden(*args, **kwargs):
        raise AssertionError("sympy differentiated or compiled an expression")

    for name in ("diff", "lambdify"):
        monkeypatch.setattr(sp, name, forbidden)
    d1 = check_conformal_covariance(g, u, f, pts, step=0.08)
    d2 = check_conformal_covariance(g, u, f, pts, step=0.04)
    assert abs(np.log2(d1 / d2) - 4.0) < 0.5
    assert abs(q_curvature(sphere_metric(), np.zeros(4)) - 3.0) < 1e-6
    total = gauss_bonnet_check(SphereModel(6, 3, 3))
    assert abs(total - 8.0 * np.pi**2) < 0.01 * 8.0 * np.pi**2


def test_constant_conformal_factor_scales_volume():
    dom = Box.cube(1.0)
    g = MetricField.flat(dom)
    c = 0.3
    gt = conformal_transform(g, ScalarField(dom, c))
    pts = np.random.default_rng(1).uniform(-0.5, 0.5, (5, 4))
    ratio = np.sqrt(np.linalg.det(gt.jet(pts, 0)[0]) / np.linalg.det(g.jet(pts, 0)[0]))
    assert np.max(np.abs(ratio - np.exp(4 * c))) < 1e-12


def test_conformal_covariance_refines_at_stencil_order():
    dom = Box.cube(5.0)
    g = MetricField.flat(dom)
    u = ScalarField.from_expr(sp.log(2 / (1 + R2)), dom)
    f = ScalarField.from_expr(x0**2 * x1 + x2, dom)
    pts = np.array([[0.3, 0.1, -0.2, 0.4], [0.0, 0.5, 0.2, -0.1]])
    d1 = check_conformal_covariance(g, u, f, pts, step=0.08)
    d2 = check_conformal_covariance(g, u, f, pts, step=0.04)
    order = np.log2(d1 / d2)
    assert abs(order - 4.0) < 0.5


def test_conformal_covariance_trivial_cases():
    dom = Box.cube(5.0)
    g = MetricField.flat(dom)
    zero = ScalarField(dom, 0.0)
    f = ScalarField.from_expr(x0**3 + x1 * x2, dom)
    pts = np.array([[0.3, 0.1, -0.2, 0.4]])
    assert check_conformal_covariance(g, zero, f, pts, step=0.05) < 1e-9
    const = ScalarField(dom, 1.7)
    u = ScalarField.from_expr(sp.log(2 / (1 + R2)), dom)
    assert check_conformal_covariance(g, u, const, pts, step=0.05) < 1e-12


def test_q_transformation_sphere_factor():
    dom = Box.cube(5.0)
    g = MetricField.flat(dom)
    u = ScalarField.from_expr(sp.log(2 / (1 + R2)), dom)
    pts = np.array([[0.0, 0.0, 0.0, 0.0], [0.4, -0.1, 0.2, 0.3]])
    assert _q_transformation_residual(g, u, pts) < 1e-6


def test_gauss_bonnet_sphere():
    val = gauss_bonnet_check(SphereModel(n_theta=12, n_u=6, n_phi=6))
    target = 8.0 * np.pi**2
    assert abs(val - target) < 0.01 * target


def test_gauss_bonnet_reads_q_from_its_own_riemann_tensors(monkeypatch):
    # each node once for R, Ric and W together, then the 17 points of the
    # Laplacian's stencil: 18 per node, where Q read apart took 19
    model = SphereModel(6, 3, 3)
    sizes = []
    real = curvature.riemann_of_metric
    monkeypatch.setattr(
        curvature, "riemann_of_metric", lambda g, x: sizes.append(len(x)) or real(g, x)
    )
    assert gauss_bonnet_check(model) == 78.95395335979619
    assert len(model.quad_points) == 162 and sum(sizes) == 18 * 162 == 2916


def test_gauss_bonnet_peak_memory(monkeypatch):
    # the Laplacian's 2,754 stencil points reach the curvature kernel in
    # blocks of FD_BLOCK, whose temporaries take about 10 KB per point:
    # about 5.7 MB traced, where one block of all of them traced 27 MB
    want = gauss_bonnet_check(SphereModel(6, 3, 3))  # warms the cached programs
    tracemalloc.start()
    try:
        total = gauss_bonnet_check(SphereModel(6, 3, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    # blocking is bit-neutral: one block of every stencil point gives the same total
    monkeypatch.setattr(fields, "FD_BLOCK", 10**9)
    assert gauss_bonnet_check(SphereModel(6, 3, 3)) == total == want


def test_gauss_bonnet_conformally_perturbed_sphere():
    expr = sp.Rational(1, 20) / (1 + R2)
    val = gauss_bonnet_check(SphereModel(n_theta=12, n_u=6, n_phi=6, conformal_expr=expr))
    target = 8.0 * np.pi**2
    assert abs(val - target) < 0.01 * target


def _perturbed_sphere():
    w = sp.Rational(1, 20) / (1 + R2)
    return MetricField(Box.cube(100.0), sp.exp(2 * w) * 4 / (1 + R2) ** 2)


def _sampled_metric():
    """A cubic metric with an off-diagonal entry, not conformally flat."""
    m = sp.eye(4) * (1 + R2 / 10)
    m[0, 1] = m[1, 0] = x0 * x1 / 10 + x2**2 / 20 - x0**3 / 60
    return _exact_metric(m, 10.0)


def _coupled_metric():
    """A quadratic metric coupling every pair of axes: g^{-1} has every
    off-diagonal entry nonzero away from the origin."""
    m = sp.eye(4) * (1 + R2 / 10)
    for a in range(4):
        for b in range(a + 1, 4):
            m[a, b] = m[b, a] = COORDS[a] * COORDS[b] / 20
    return _exact_metric(m, 10.0)


# |x| > 1 at the last two points, so each has its own default Q step
_BATCH = np.array(
    [[0.3, -0.2, 0.1, 0.0], [1.5, -0.7, 0.2, 1.1], [3.0, 1.0, -2.0, 0.5]]
)


def _closed_form_q(g):
    """Q_g = (1/2) e^{-4w} Delta^2 w for g = e^{2w} delta, w = (1/2) log f,
    from P_g u + 2 Q_g = 2 Q_gt e^{4u} with the flat g = delta."""
    w = sp.expand_log(sp.log(g.factor.expr), force=True) / 2
    bilap = sum(sp.diff(w, a, a, b, b) for a in COORDS for b in COORDS)
    q = sp.lambdify(COORDS, sp.exp(-4 * w) * bilap / 2, modules="numpy")
    return lambda pts: np.broadcast_to(q(*pts.T), len(pts))


_Q_POINTS = np.vstack([np.zeros(4), _BATCH])


@pytest.mark.parametrize("metric", [sphere_metric, _perturbed_sphere])
def test_q_curvature_matches_conformal_factor_closed_form(metric):
    g = metric()
    assert np.max(np.abs(q_curvature(g, _Q_POINTS) - _closed_form_q(g)(_Q_POINTS))) < 1e-8


def test_q_closed_form_sees_the_laplacian_of_scalar_curvature(monkeypatch):
    # Delta_g R = 0 on the round sphere, so only the perturbed sphere sees
    # a sign error in that term
    fd_laplacian = curvature._fd_laplacian
    monkeypatch.setattr(curvature, "_fd_laplacian", lambda *a: -fd_laplacian(*a))
    for g, can_see in [(sphere_metric(), False), (_perturbed_sphere(), True)]:
        gap = np.max(np.abs(q_curvature(g, _Q_POINTS) - _closed_form_q(g)(_Q_POINTS)))
        assert (gap > 1e-8) == can_see


@pytest.mark.parametrize(
    "metric, per_point", [(sphere_metric, 17), (_sampled_metric, 33), (_coupled_metric, 113)]
)
def test_fd_laplacian_evaluates_only_the_partials_g_inverse_reaches(
    monkeypatch, metric, per_point
):
    # the centre and four points on each axis, and 16 mixed points for each
    # pair (i, j) with g^{ij} nonzero: none on the sphere, (0, 1) alone on
    # the sampled metric, all six on the coupled one
    g = metric()
    f = ScalarField.from_expr(x0**2 * x1**2 + x2 * x3, g.domain)
    n = len(_Q_POINTS)
    sizes = []
    for name in ("riemann_of_metric", "laplace_beltrami"):
        real = getattr(curvature, name)
        monkeypatch.setattr(
            curvature, name, lambda g, *a, real=real: sizes.append(len(a[-1])) or real(g, *a)
        )
    q = q_curvature(g, _Q_POINTS)
    assert sizes == [n, per_point * n]
    sizes.clear()
    pan = paneitz_apply(g, f, _Q_POINTS)
    # Delta_g of Delta_g f, then the divergence term's four first partials,
    # whose stencils leave out the centre
    assert sizes == [per_point * n, 16 * n]
    # a Laplacian from the full order-2 jet meets the same exact zeros of
    # g^{-1}, so it gives the same bits
    def full_laplacian(g, func, pts, step):
        return curvature._laplacian(g, pts, lambda reach: fd_jet(func, pts, 2, step))

    monkeypatch.setattr(curvature, "_fd_laplacian", full_laplacian)
    assert np.array_equal(q_curvature(g, _Q_POINTS), q)
    assert np.array_equal(paneitz_apply(g, f, _Q_POINTS), pan)


def test_fd_laplacian_needs_every_reached_pair(monkeypatch):
    g = _sampled_metric()
    q = q_curvature(g, _Q_POINTS)
    monkeypatch.setattr(
        curvature,
        "fd_jet",
        lambda func, pts, order, step, indices: fd_jet(
            func, pts, order, step, [i for i in indices if i != (0, 1)]
        ),
    )
    assert np.max(np.abs(q_curvature(g, _Q_POINTS) - q)) > 1e-8


@pytest.mark.parametrize("metric", [_perturbed_sphere, _sampled_metric])
def test_batched_kernel_matches_single_points(metric):
    g = metric()
    riem = riemann_of_metric(g, _BATCH)
    q = q_curvature(g, _BATCH)
    f = ScalarField.from_expr(x0**2 * x1**2 + x2 * x3, g.domain)
    pan = paneitz_apply(g, f, _BATCH)
    assert riem.components.shape == (3, 4, 4, 4, 4) and q.shape == pan.shape == (3,)
    wsq = weyl_norm_sq(weyl_tensor(riem), riem.g_inv)
    for n, x in enumerate(_BATCH):
        one = riemann_of_metric(g, x)
        assert one.components.shape == (4, 4, 4, 4)
        scale = np.max(np.abs(one.components))
        assert np.max(np.abs(riem.components[n] - one.components)) <= 1e-13 * scale
        assert abs(riem.scalar[n] - one.scalar) <= 1e-13 * abs(one.scalar)
        assert abs(riem.ricci_norm_sq[n] - one.ricci_norm_sq) <= 1e-13 * one.ricci_norm_sq
        assert abs(wsq[n] - weyl_norm_sq(weyl_tensor(one), one.g_inv)) <= 1e-13 * max(wsq[n], 1.0)
        assert abs(q[n] - q_curvature(g, x)) <= 1e-13 * abs(q[n])
        assert abs(pan[n] - paneitz_apply(g, f, x)) <= 1e-13 * abs(pan[n])
    assert abs(q[0] - 3.0) > 1e-3  # genuinely perturbed, not the round value


def test_batched_kernel_checks_every_point():
    g = sphere_metric(Box.cube(1.0))
    inside = np.array([[0.1, 0.0, 0.0, 0.0], [0.5, 0.2, 0.0, 0.0]])
    riemann_of_metric(g, inside)
    with pytest.raises(ChartError, match=r"2\."):
        riemann_of_metric(g, np.vstack([inside, [2.0, 0.0, 0.0, 0.0]]))

    bad = MetricField(Box.cube(2.0), 1 + x0)
    pts = np.array([[0.5, 0.0, 0.0, 0.0], [-1.0, 0.3, 0.0, 0.0], [0.2, 0.0, 0.0, 0.0]])
    with pytest.raises(DegenerateMetricError):
        riemann_of_metric(bad, pts)
    with pytest.raises(DegenerateMetricError):
        q_curvature(bad, pts)
