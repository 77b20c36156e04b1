import itertools
import tracemalloc
from fractions import Fraction
from math import factorial, prod

import numpy as np
import pytest
import sympy as sp

import qcurv.fields as fields
import qcurv.pohozaev as pohozaev
from qcurv import JET_BLOCK
from qcurv.bubble import RescaledBubble
from qcurv.cnc import (
    _MONOMIALS,
    CurvatureJet,
    _apply_jet_table,
    _jet_table,
    ExactArray,
    blowup_metric,
    inverse_metric_taylor,
    metric_taylor_from_jet,
    random_conformal_normal_jet,
    ricci_of,
    scale_jet,
)
from qcurv.fields import (
    COORDS, Box, ConstantField, DerivativeOrderError, ScalarField, _expand, _symmetric_jet,
    fd_jet, polar_jet, polar_points,
)
from qcurv.pohozaev import (
    BOUNDARY_BLOCK, BallDomain, RadialProfileField, _detone_terms, _tables, pohozaev_balance,
)
from qcurv.quadrature import gauss_legendre, s3_nodes


ONE, ZERO = ConstantField(1.0), ConstantField(0.0)


def _interior_nodes(ball):
    """Every interior node of ``ball`` and its weight, its blocks (every
    shell times a run of directions) joined."""
    runs = list(ball.runs(JET_BLOCK // ball.n_r))
    return np.concatenate([polar_points(ball.radii[:, None], dirs) for dirs, _ in runs]), np.concatenate(
        [(ball.shell_w[:, None] * wd).reshape(-1) for _, wd in runs]
    )


def test_ball_domain_invariants():
    ball = BallDomain(3.0, n_r=16, n_u=12, n_phi=12)
    # weight sums are validated on construction; the directions are unit
    # vectors, and the boundary weights are R^3 times theirs
    assert np.allclose(np.linalg.norm(ball.s3_pts, axis=1), 1.0)
    assert np.array_equal(ball.bdy_w, 27.0 * ball.s3_w)


@pytest.mark.parametrize("dims", [(1.0, 8, 6, 6), (20.0, 4, 24, 24)])
def test_interior_blocks_join_to_the_product_rule(dims):
    # a run of directions with every shell is an interior block, with the
    # one shell r = R a sphere block.  Every direction is in exactly one
    # run, so every (shell, direction) node is in exactly one block, at
    # radius times direction with the shell weight times the S^3 weight,
    # bit for bit, and a walk that pairs a run with another run's weights
    # fails.  The runs are d long, the last a tail: the interior's of
    # JET_BLOCK // n_r directions (one run of 216, or runs of 1,024), the
    # sphere's of BOUNDARY_BLOCK, runs of 5 and one run of all
    R, n_r, n_u, n_phi = dims
    ball = BallDomain(*dims)
    r, wr = gauss_legendre(n_r, 0.0, R)
    s_pts, s_w = s3_nodes(n_u, n_phi)
    m = len(s_pts)
    direction = {p.tobytes(): j for j, p in enumerate(s_pts)}
    assert np.array_equal(ball.radii, r) and np.array_equal(ball.shell_w, wr * r**3)
    for d in (JET_BLOCK // n_r, BOUNDARY_BLOCK, 5, m):
        seen = np.zeros(m, dtype=int)
        runs = list(ball.runs(d))
        for dirs, wd in runs:
            j = np.array([direction[p.tobytes()] for p in dirs])
            np.add.at(seen, j, 1)
            for radii, shell_w in ((r, wr * r**3), (np.array([R]), np.array([R**3]))):
                pts = polar_points(radii[:, None], dirs)
                assert np.array_equal(pts, (radii[:, None, None] * s_pts[j]).reshape(-1, 4))
                w = (shell_w[:, None] * wd).reshape(-1)
                assert np.array_equal(w, (shell_w[:, None] * s_w[j]).reshape(-1))
        assert np.all(seen == 1)
        assert [len(dirs) for dirs, _ in runs] == [d] * (m // d) + [m % d] * (m % d > 0)
    assert np.array_equal(ball.int_w, ((wr * r**3)[:, None] * s_w).reshape(-1))
    assert np.array_equal(ball.bdy_w, R**3 * s_w)


def _traced_peak(run):
    """The tracemalloc peak of ``run()`` above the memory traced before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_flat_balance_peak_memory():
    # shell x direction blocks with weights formed per block: this balance,
    # 48 shells of 13,824 directions, peaks at 2.0 MB of traced allocations
    # (the suite's 8 directions at 0.03 MB).  The whole node array and the
    # sphere's order-3 jet at once took it to 61 MB, blocks of 4,096 nodes
    # beside the whole interior weights to 16.5 MB
    u = RadialProfileField(RescaledBubble(1.0))
    peak = _traced_peak(lambda: pohozaev_balance(u, ONE, ZERO, BallDomain(20.0, 48, 24, 24)))
    assert peak < 3e6, peak


def test_curved_sweep_peak_memory():
    # 24 shells of 4,096 directions: two and three metrics peak at 1.90 and
    # 2.40 MB of traced allocations (on the suite's 512 directions at 1.82
    # and 2.32 MB).  A boundary workspace that lived through the interior
    # sums took them to 2.33 and 2.78 MB.  The radially halved ball shares
    # the cached S^3 rule; a copy of it raised the two-metric peak by
    # 0.14 MB.  With 4,096 nodes per interior block they peaked at 6.6 and
    # 8.0 MB, and with the boundary also in blocks of 4,096 nodes two
    # peaked at 13.8 MB
    u, mts = _sweep_setup()
    ball = BallDomain(1.0, 24, 16, 16)
    for n_metrics, bound in ((2, 2.2e6), (3, 2.8e6)):
        peak = _traced_peak(lambda k=n_metrics: pohozaev_balance(u, ONE, ZERO, ball, mts[:k]))
        assert peak < bound, (n_metrics, peak)


def test_flat_identity_exact_bubble():
    rb = RescaledBubble(1.0)
    u = RadialProfileField(rb)
    ball = BallDomain(20.0, n_r=48, n_u=2, n_phi=2)
    (rep,) = pohozaev_balance(u, ONE, ZERO, ball)
    assert abs(rep.residual) / abs(rep.I0) < 1e-4
    # flat metric reports the curvature terms as exact zeros; with b = 0
    # the I2 written to the CSV is +0.0, not -0.0
    assert rep.I2 == 0.0 and rep.I3 == 0.0 and rep.I4 == 0.0
    assert np.copysign(1.0, rep.I2) == 1.0
    # the integrand is radial, which every S^3 rule integrates exactly, so
    # even the one-direction halved rule is at rounding
    assert rep.radial_error_estimate < 1e-3 * abs(rep.I0)
    assert rep.angular_error_estimate < 1e-14 * abs(rep.I0)


def test_flat_identity_negative_control():
    # mismatched h: u still solves the equation with h = 1, so scaling h
    # breaks the balance by a margin far above the quadrature error bound
    rb = RescaledBubble(1.0)
    u = RadialProfileField(rb)
    ball = BallDomain(20.0, n_r=48, n_u=2, n_phi=2)
    (rep,) = pohozaev_balance(u, ConstantField(1.5), ZERO, ball)
    assert abs(rep.residual) > 10.0 * max(rep.radial_error_estimate, rep.angular_error_estimate, 1e-6)


class _QuadraticProfile:
    """The radial profile 1 + a r^2, to order 1."""

    def __init__(self, a):
        self.a = a

    def radial(self, r):
        return [1.0 + self.a * r**2, 2.0 * self.a * r]


def test_i0_reads_the_gradient_of_h():
    # I0 = int 2 h e^{4U} + (1/2) xi.grad(h) e^{4U} = 2 pi^2 int_0^R (2 + 3 a r^2) e^{4U} r^3 dr
    a, R = 0.1, 2.0
    rb = RescaledBubble(1.0)
    u = RadialProfileField(rb)
    ball = BallDomain(R, n_r=16, n_u=8, n_phi=8)
    r, w = gauss_legendre(64, 0.0, R)
    want = 2.0 * np.pi**2 * np.sum(w * (2.0 + 3.0 * a * r**2) * rb.exp4u(r) * r**3)
    (rep,) = pohozaev_balance(u, RadialProfileField(_QuadraticProfile(a)), ZERO, ball)
    assert abs(rep.I0 - want) <= 1e-12 * want


def _third(prof, y, i, m, l):
    """d_iml of the radial profile at y, from ``RadialProfileField.jet``."""
    return float(RadialProfileField(prof).jet(y[None, :], 3)[3][0, i, m, l])


class _Quadratic:
    def radial(self, r):
        r = np.asarray(r, float)
        return [r**2, 2.0 * r, np.full_like(r, 2.0), np.zeros_like(r)]


class _LogProfile:
    def radial(self, r):
        r = np.asarray(r, float)
        q = 1.0 + r**2
        return [np.log(q), 2.0 * r / q, 2.0 * (1.0 - r**2) / q**2, 4.0 * r * (r**2 - 3.0) / q**3]


def test_radial_profile_refuses_an_order_its_list_does_not_reach():
    pts = np.array([[0.3, -0.2, 0.5, 0.1]])
    bubble = RadialProfileField(RescaledBubble(1.0))
    quadratic = RadialProfileField(_QuadraticProfile(0.1))
    assert len(bubble.jet(pts, 3)) == 4 and len(quadratic.jet(pts, 1)) == 2
    for field, order in ((bubble, 4), (quadratic, 2)):
        with pytest.raises(DerivativeOrderError):
            field.jet(pts, order)
        with pytest.raises(DerivativeOrderError):
            field.polar_terms(np.ones((2, 1)), pts, order)


def test_radial_third_derivative_of_r_squared_vanishes():
    prof = _Quadratic()
    y = np.array([0.7, -0.3, 0.2, 0.5])
    for i in range(4):
        for m in range(4):
            for l in range(4):
                assert abs(_third(prof, y, i, m, l)) < 1e-14


def test_radial_third_derivative_matches_fd():
    prof = _LogProfile()
    rng = np.random.default_rng(4)
    h = 1e-2
    for _ in range(20):
        y = rng.uniform(-2, 2, 4)
        if np.linalg.norm(y) < 0.5:
            y[0] += 1.5
        i, m, l = rng.integers(0, 4, 3)

        def g(p):
            return prof.radial(np.linalg.norm(p))[0]

        def d_l(p):
            ql, qm = p.copy(), p.copy()
            ql[l] += h
            qm[l] -= h
            return (g(ql) - g(qm)) / (2 * h)

        def d_ml(p):
            ql, qm = p.copy(), p.copy()
            ql[m] += h
            qm[m] -= h
            return (d_l(ql) - d_l(qm)) / (2 * h)

        qp, qm2 = y.copy(), y.copy()
        qp[i] += h
        qm2[i] -= h
        fd = (d_ml(qp) - d_ml(qm2)) / (2 * h)
        assert abs(_third(prof, y, i, m, l) - fd) < 1e-3


def test_radial_third_derivative_traces_to_gradient_of_laplacian():
    prof = _LogProfile()
    rng = np.random.default_rng(5)
    for _ in range(10):
        y = rng.uniform(0.5, 2.0, 4) * rng.choice([-1.0, 1.0], 4)
        r = float(np.linalg.norm(y))
        # d_r of lap f = f''' + 3 f''/r - 3 f'/r^2
        _, f1, f2, f3 = prof.radial(r)
        dlap = float(f3 + 3.0 * f2 / r - 3.0 * f1 / r**2)
        for i in range(4):
            tr = sum(_third(prof, y, i, m, m) for m in range(4))
            assert abs(tr - dlap * y[i] / r) < 1e-10


@pytest.mark.parametrize("tilt", [None, [0.3, -0.2, 0.1, 0.25]], ids=["untilted", "tilted"])
def test_radial_third_derivative_keeps_the_bits_of_the_whole_array_sum(tilt):
    # a n(x)n(x)n + b (delta_im n_l + delta_il n_m + delta_ml n_i), written
    # out with whole-array temporaries and summed left to right
    prof = RescaledBubble(1.0)
    pts = np.random.default_rng(9).uniform(-2.0, 2.0, (50, 4))
    r = np.linalg.norm(pts, axis=1)
    n = pts / r[:, None]
    _, f1, f2, f3 = prof.radial(r)
    q = f1 / r
    a = (f3 - 3.0 * f2 / r + 3.0 * f1 / r**2)[:, None, None, None]
    b = ((f2 - q) / r)[:, None, None, None]
    nn = n[:, :, None] * n[:, None, :]
    dn = np.eye(4)[None, :, :, None] * n[:, None, None, :]
    sym = dn + dn.transpose(0, 1, 3, 2) + dn.transpose(0, 3, 1, 2)
    want = a * nn[:, :, :, None] * n[:, None, None, :] + b * sym
    assert np.array_equal(RadialProfileField(prof, tilt=tilt).jet(pts, 3)[3], want)


def test_curved_terms_shrink_with_eps():
    # scale_jet makes the metric perturbation linear in eps, but its
    # first-order share of I2 cancels: in the det-one conformal-normal
    # gauge g^{ij} x_j = x^i, so the radial part of u does not feel it, and
    # the tilt's first-order terms vanish by parity (R0) and by the
    # vanishing Ricci traces Ric(0) = Ric_(ij,k)(0) = 0 (R1).  So I2 is even
    # in eps with slope 2, and I3, I4 stay at rounding level.
    rb = RescaledBubble(1.0)
    u = RadialProfileField(rb, tilt=[0.05, -0.03, 0.02, 0.04])
    ball = BallDomain(1.0, n_r=16, n_u=12, n_phi=12)
    jet = random_conformal_normal_jet(rng=21)

    def curved(eps):
        sj = scale_jet(jet, Fraction(eps).limit_denominator(10**6))
        mt = metric_taylor_from_jet(sj)
        (rep,) = pohozaev_balance(u, ONE, ZERO, ball, [mt])
        assert rep.unmodeled_remainder >= 0.0
        return rep

    eps_list = [0.2, 0.1, 0.05]
    reps = [curved(eps) for eps in eps_list]
    I2 = [rep.I2 for rep in reps]
    for rep in reps:
        assert abs(rep.I3) + abs(rep.I4) <= 1e-10 * abs(rep.I2)
    mirrored = curved(-eps_list[0])
    assert abs(mirrored.I2 - I2[0]) <= 1e-10 * abs(I2[0])
    slope = np.polyfit(np.log(eps_list), np.log(np.abs(I2)), 1)[0]
    print(f"curved-term eps-slope: {slope:.4f}")
    assert abs(slope - 2.0) <= 0.05


def _einsum_interior_terms(u, ball, mt, jet):
    """I2 (with b = 0), I3 and I4 from the order-2 jet of g^{ij} at every
    interior node and the direct index contractions of the module
    docstring, the reference for the Euler-operator kernel."""
    xi, w = _interior_nodes(ball)
    xb, wb, nu = ball.R * ball.s3_pts, ball.bdy_w, ball.s3_pts
    ginv, dginv, d2ginv = _apply_jet_table(*_jet_table(inverse_metric_taylor(mt).comps, 2), xi)
    _, gu, hu = u.jet(xi, 2)
    gub = u.jet(xb, 1)[1]
    lap = np.einsum("njij,ni->n", dginv, gu) + np.einsum("nij,nij->n", ginv, hu)
    I2 = np.sum(
        w
        * (
            np.einsum("n,niji,nj->n", lap, dginv, gu)
            + np.einsum("nm,n,nijim,nj->n", xi, lap, d2ginv, gu)
            + np.einsum("nm,n,nijm,nij->n", xi, lap, dginv, hu)
        )
    )
    ric1 = ricci_of(jet.R1).to_float()
    I3 = 2.0 * np.sum(wb * np.einsum("ijl,nl,nm,ni,nj,nm->n", ric1, xb, xb, nu, gub, gub))
    I4 = -np.sum(
        w
        * (
            2.0 * np.einsum("ijl,nl,nj,ni->n", ric1, xi, gu, gu)
            + 2.0 * np.einsum("ijl,nm,nl,nj,nim->n", ric1, xi, xi, gu, hu)
        )
    )
    return I2, I3, I4


def _einsum_flux(u, ball, mt):
    """I1 (with h = 1) from the order-2 jet of g^{ij} at every boundary
    node and the direct index contractions of the module docstring, with
    d_m(lap u) = d_jm g^{ji} d_i u + d_j g^{ji} d_im u + d_m g^{ij} d_ij u
    + g^{ij} d_ijm u: the reference for the boundary table."""
    xb, wb, nu = ball.R * ball.s3_pts, ball.bdy_w, ball.s3_pts
    ginv, dginv, d2ginv = _apply_jet_table(*_jet_table(inverse_metric_taylor(mt).comps, 2), xb)
    uv, gu, hu, tu = u.jet(xb, 3)
    lap = np.einsum("njij,ni->n", dginv, gu) + np.einsum("nij,nij->n", ginv, hu)
    glap = (
        np.einsum("njijm,ni->nm", d2ginv, gu)
        + np.einsum("njij,nim->nm", dginv, hu)
        + np.einsum("nijm,nij->nm", dginv, hu)
        + np.einsum("nij,nijm->nm", ginv, tu)
    )
    xnu = np.einsum("ni,ni->n", xb, nu)
    flux = (
        0.5 * np.exp(4.0 * uv) * xnu
        - np.einsum("nij,ni,nm,nm,nj->n", ginv, glap, xb, gu, nu)
        + np.einsum("nij,n,ni,nj->n", ginv, lap, gu, nu)
        + np.einsum("nij,n,nm,nim,nj->n", ginv, lap, xb, hu, nu)
        - 0.5 * lap**2 * xnu
    )
    return float(wb @ flux)


def _ricci_jet():
    """R_abcd,e = K_e R_abcd of curvature 1: Ric_ij,l = 3 K_l delta_ij does
    not vanish, so I3 and I4 are far from rounding level."""
    R0 = CurvatureJet.constant_curvature(1).R0
    # K = (1, -2, 3, 1/2), as numerators over 2
    R1 = np.stack([k * R0.num for k in (2, -4, 6, 1)], axis=-1)
    return CurvatureJet(R0=R0, R1=ExactArray(R1, 2 * R0.den))


def test_curved_kernel_matches_direct_contractions():
    u = RadialProfileField(RescaledBubble(1.0), tilt=[0.3, -0.2, 0.1, 0.25])
    ball = BallDomain(1.0, 8, 6, 6)
    # a conformal-normal jet's I3 and I4 are at rounding level: it checks I1 and I2
    for jet, n_terms in ((_ricci_jet(), 4), (random_conformal_normal_jet(rng=3), 2)):
        mt = metric_taylor_from_jet(jet)
        (rep,) = pohozaev_balance(u, ONE, ZERO, ball, [mt])
        want = (_einsum_flux(u, ball, mt),) + _einsum_interior_terms(u, ball, mt, jet)
        got = (rep.I1, rep.I2, rep.I3, rep.I4)
        for g, w in list(zip(got, want))[:n_terms]:
            assert abs(w) > 1e-3
            assert abs(g - w) <= 1e-12 * abs(w)


# the exact reference's polynomials: rationals in the chart variables
_RING, *_X = sp.ring("x0:4", sp.QQ)
# the exponents of the monomials of degree <= 4
_EXPONENTS = np.array([m for m in itertools.product(range(5), repeat=4) if sum(m) <= 4])


class _PolyField:
    """A polynomial of degree <= 4 in ``_RING``, with its exact partials
    evaluated in floats, to order 3."""

    def __init__(self, poly):
        self.coef = {}
        for k in range(4):
            for index in itertools.combinations_with_replacement(range(4), k):
                p = poly
                for ax in index:
                    p = p.diff(_X[ax])
                terms = dict(p.terms())
                self.coef[index] = np.array([float(terms.get(tuple(e), 0)) for e in _EXPONENTS])

    def jet(self, pts, order, degree=None):
        """The partials at ``pts``; with ``degree``, those of the
        homogeneous part of that degree of each partial."""
        powers = np.cumprod(np.stack([np.ones_like(pts)] + [pts] * 4, axis=-1), axis=-1)
        mono = np.prod(powers[:, np.arange(4), _EXPONENTS], axis=-1)
        if degree is not None:
            mono = mono * (_EXPONENTS.sum(axis=1) == degree)
        return _symmetric_jet(order, lambda index: mono @ self.coef[index])

    def polar_terms(self, r, dirs, order):
        # one term per degree m >= k of part k: r^(m - k) times the order-k
        # partials of the degree-m part at n, the degree m - k part of the
        # order-k partials
        r = np.asarray(r, float)
        return [
            (
                np.stack([r ** (m - k) for m in range(k, 5)], -1),
                [self.jet(dirs, k, m - k)[k] for m in range(k, 5)],
            )
            for k in range(order + 1)
        ]


def _random_poly(degree, rng):
    """Coefficients k/7, k uniform in -5..5, on each monomial of degree 1
    to ``degree``."""
    monomials = [tuple(m) for m in _EXPONENTS.tolist() if 1 <= sum(m) <= degree]
    return _RING({m: sp.QQ(int(k), 7) for m, k in zip(monomials, rng.integers(-5, 6, len(monomials))) if k})


def _s3_moment(alpha):
    """int_{S^3} x^alpha / pi^2 as a Fraction (Folland, Amer. Math. Monthly
    108 (2001)): 2 prod Gamma(b_i) / Gamma(sum b_i), b_i = (alpha_i + 1)/2,
    and 0 if some alpha_i is odd.  For alpha = 2a, Gamma(a_i + 1/2) is
    sqrt(pi) (2a_i)! / (4^a_i a_i!) and Gamma(sum b_i) is (sum a_i + 1)!."""
    if any(a % 2 for a in alpha):
        return Fraction(0)
    half = [a // 2 for a in alpha]
    gammas = prod(Fraction(factorial(2 * a), 4**a * factorial(a)) for a in half)
    return 2 * gammas / factorial(sum(half) + 1)


def _integral(poly, R, over_ball):
    """The integral of ``poly`` over the ball |x| <= R, or over its sphere,
    summed exactly term by term and rounded once."""
    total = Fraction(0)
    for alpha, c in poly.terms():
        d = sum(alpha)
        radial = R ** (d + 4) / (d + 4) if over_ball else R ** (d + 3)
        total += Fraction(int(c.numerator), int(c.denominator)) * radial * _s3_moment(alpha)
    return float(total * Fraction(np.pi**2))


def _exact_terms(u, ginv, ric1, R):
    """I1-I4 with h = b = 0 over the ball of radius ``R``, from the
    displays of the module docstring: ``u`` and ``ginv[i][j]`` are
    polynomials in ``_RING``, ``ric1[i][j][l]`` = Ric_ij,l(0), and
    lap u = d_i (g^{ij} d_j u).  The sphere integrands are written with
    R nu = xi."""
    xi = _X
    gu = [u.diff(x) for x in xi]
    hu = [[g.diff(x) for x in xi] for g in gu]
    xgu = sum(x * g for x, g in zip(xi, gu))
    xhu = [sum(x * h for x, h in zip(xi, row)) for row in hu]  # xi^m d_im u

    def euler(p):  # xi^m d_m p
        return sum(x * p.diff(x) for x in xi)

    lap = sum(sum(ginv[i][j] * gu[j] for j in range(4)).diff(xi[i]) for i in range(4))
    flux = -lap**2 * sum(x * x for x in xi) / 2
    for i in range(4):
        gxi = sum(ginv[i][j] * xi[j] for j in range(4))
        flux += gxi * (lap * (gu[i] + xhu[i]) - lap.diff(xi[i]) * xgu)
    div = [sum(ginv[i][j].diff(xi[i]) for i in range(4)) for j in range(4)]  # d_i g^{ij}
    i2 = sum((div[j] + euler(div[j])) * gu[j] for j in range(4))
    i2 += sum(euler(ginv[i][j]) * hu[i][j] for i in range(4) for j in range(4))
    # Ric_ij,l xi^l d_j u
    ric_du = [sum(ric1[i][j][l] * xi[l] * gu[j] for j in range(4) for l in range(4)) for i in range(4)]
    i3 = sum(v * x for v, x in zip(ric_du, xi)) * xgu
    i4 = sum(v * (g + h) for v, g, h in zip(ric_du, gu, xhu))
    return (
        _integral(flux, R, False) / R,
        _integral(lap * i2, R, True),
        2.0 * _integral(i3, R, False) / R,
        -2.0 * _integral(i4, R, True),
    )


def test_each_term_matches_exact_integrals_of_polynomial_data():
    # With h = b = 0 and polynomial u every integrand is a polynomial, of
    # degree <= 8 in the interior and <= 10 on the sphere, which this rule
    # integrates exactly.  Its blocks of 4,096 nodes end inside shells of
    # 1,728.  A cubic u is biharmonic, so its flat I1 = -int Delta^2 u
    # xi.grad u vanishes: the flat case takes a quartic.
    rng = np.random.default_rng(1)
    R = Fraction(3, 2)
    ball = BallDomain(float(R), 8, 12, 12)
    jet = _ricci_jet()
    mt = metric_taylor_from_jet(jet)
    inv, ric = inverse_metric_taylor(mt).comps, ricci_of(jet.R1)
    curved = [
        [
            _RING({tuple(m): sp.QQ(int(c), inv.den) for m, c in zip(_MONOMIALS.tolist(), inv.num[i, j]) if c})
            for j in range(4)
        ]
        for i in range(4)
    ]
    ric1 = [[[sp.QQ(int(c), ric.den) for c in row] for row in plane] for plane in ric.num]
    flat = [[_RING(int(i == j)) for j in range(4)] for i in range(4)]
    zeros = np.zeros((4, 4, 4), dtype=int).tolist()
    cases = ((_random_poly(3, rng), (mt,), curved, ric1), (_random_poly(4, rng), (), flat, zeros))
    for u, mts, ginv, ric_l in cases:
        (rep,) = pohozaev_balance(_PolyField(u), ZERO, ZERO, ball, mts)
        want = _exact_terms(u, ginv, ric_l, R)
        assert rep.I0 == 0.0
        for name, got, w in zip(("I1", "I2", "I3", "I4"), (rep.I1, rep.I2, rep.I3, rep.I4), want):
            assert abs(got - w) <= 1e-12 * abs(w), (name, got, w)
            # every curved term is far from 0; the flat I2, I3 and I4 are exact zeros
            assert (abs(w) > 10.0) if mts or name == "I1" else (w == got == 0.0)


def _detone(mt, u, x):
    """The det-one Laplacian of the field ``u`` at the point ``x``, from the
    boundary table."""
    pt = np.atleast_2d(x)
    lap, _, _ = _detone_terms(_tables([mt])[1], pt, u.jet(pt, 3))
    return float(lap[0, 0])


def test_detone_laplacian_at_origin_and_near_origin():
    jet = random_conformal_normal_jet(rng=4)
    mt = metric_taylor_from_jet(jet)
    dom = Box.cube(2.0)
    x0, x1, x2, x3 = COORDS
    u = ScalarField.from_expr(x0**2 + 3 * x1 * x2 - x3**2, dom)
    # expansions vanish at the origin: plain Euclidean Laplacian
    assert abs(_detone(mt, u, np.zeros(4)) - 0.0) < 1e-12

    u2 = ScalarField.from_expr(x0**2 + x1**2, dom)
    assert abs(_detone(mt, u2, np.zeros(4)) - 4.0) < 1e-12


def test_detone_laplacian_agrees_with_metric_operator_near_origin():
    from qcurv.curvature import laplace_beltrami

    jet = random_conformal_normal_jet(rng=8)
    sj = scale_jet(jet, Fraction(1, 50))
    mt = metric_taylor_from_jet(sj)
    g = blowup_metric(sj, 1.0, half_width=1.0)
    dom = g.domain
    x0, x1, x2, x3 = COORDS
    u = ScalarField.from_expr(sp.sin(x0) * sp.cos(x1) + x2 * x3, dom)
    gaps = []
    for r in (0.2, 0.1, 0.05):
        x = np.array([r, 0.4 * r, -0.3 * r, 0.2 * r])
        gaps.append(abs(_detone(mt, u, x) - laplace_beltrami(g, u, x)))
    # the det-one form drops the sqrt(det) drift term, an O(r^3) effect
    slope = np.polyfit(np.log([0.2, 0.1, 0.05]), np.log(gaps), 1)[0]
    assert slope > 2.0


def _halved(ball):
    """The balls of ``pohozaev_balance``'s radial and angular error
    estimates: ``ball`` with its radial rule halved, and with its S^3 rule
    halved."""
    return (
        BallDomain(ball.R, max(ball.n_r // 2, 2), ball.n_u, ball.n_phi),
        BallDomain(ball.R, ball.n_r, max(ball.n_u // 2, 1), max(ball.n_phi // 2, 1)),
    )


def test_flat_balance_evaluates_no_interior_hessian(monkeypatch):
    u = RadialProfileField(RescaledBubble(1.0))
    ball = BallDomain(5.0, n_r=8, n_u=8, n_phi=10)
    radii = []
    polar_terms = u.polar_terms

    def recording_terms(r, dirs, order):
        if order >= 2:
            radii.append(r)
        return polar_terms(r, dirs, order)

    monkeypatch.setattr(u, "polar_terms", recording_terms)
    pohozaev_balance(u, ONE, ZERO, ball)
    # the order >= 2 jets are the boundary's, one per sphere block of the
    # balance's ball (800 directions: 512 and 288) and of its angular
    # estimate's (100), at the one radius R; the radial estimate's ball has
    # the balance's sphere and shares its terms
    angular = _halved(ball)[1]
    n_blocks = sum(len(list(b.runs(BOUNDARY_BLOCK))) for b in (ball, angular))
    assert n_blocks == 3
    assert len(radii) == n_blocks
    assert all(np.array_equal(r, [ball.R]) for r in radii)


@pytest.mark.parametrize("dims", [(1.0, 7, 6, 5), (1.0, 2, 1, 3)])
def test_each_error_estimate_halves_one_rule(dims):
    # each estimate is the change of the residual when its rule alone is
    # halved, bit for bit, the sphere of the radially halved ball shared;
    # a rule at its floor, 2 shells or 1 node per S^3 axis, halves to itself
    # and its estimate is 0
    u, mts = _sweep_setup()
    ball = BallDomain(*dims)
    radial, angular = _halved(ball)
    for entries in ((), mts):
        got = pohozaev_balance(u, ONE, ZERO, ball, entries)
        for term, half in (("radial_error_estimate", radial), ("angular_error_estimate", angular)):
            want = pohozaev_balance(u, ONE, ZERO, half, entries)
            assert [getattr(g, term) for g in got] == [abs(g.residual - w.residual) for g, w in zip(got, want)]
    (rep,) = pohozaev_balance(u, ONE, ZERO, BallDomain(1.0, 2, 1, 1), mts[:1])
    assert rep.radial_error_estimate == rep.angular_error_estimate == 0.0


def test_tables_are_built_once_per_call_and_never_for_a_flat_one(monkeypatch):
    u, mts = _sweep_setup()
    ball = BallDomain(1.0, n_r=8, n_u=8, n_phi=10)
    calls = []
    for name in ("_jet_table", "_apply_jet_table", "_degree_tables"):
        real = getattr(pohozaev, name)

        def recording(*args, real=real, name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(pohozaev, name, recording)
    pohozaev_balance(u, ONE, ZERO, ball)
    assert calls == []
    # a sweep: two tables per metric, built once; each ball evaluates the
    # boundary table at the points of each sphere block and the interior
    # one's degree tables at the directions of each interior block, a run
    # of JET_BLOCK // (3 n_r) directions over all n_r shells.  The
    # balance's ball has 800 directions: two sphere blocks (512 and 288)
    # and five interior runs of 170 (the last 120).  Its radial estimate's
    # ball, 4 shells, shares that sphere and takes three runs of 341 (the
    # last 118); its angular estimate's, 100 directions, one sphere block
    # and one run
    pohozaev_balance(u, ONE, ZERO, ball, mts)
    assert calls.count("_jet_table") == 2 * len(mts)
    radial, angular = _halved(ball)
    spheres = [len(list(b.runs(BOUNDARY_BLOCK))) for b in (ball, angular)]
    runs = [len(list(b.runs(JET_BLOCK // (len(mts) * b.n_r)))) for b in (ball, radial, angular)]
    assert spheres == [2, 1] and runs == [5, 3, 1]
    assert calls.count("_apply_jet_table") == sum(spheres)
    assert calls.count("_degree_tables") == sum(runs)


def _sweep_setup():
    u = RadialProfileField(RescaledBubble(1.0), tilt=[0.05, -0.03, 0.02, 0.04])
    mts = [metric_taylor_from_jet(scale_jet(_ricci_jet(), Fraction(1, d))) for d in (5, 10, 20)]
    return u, mts


def _assert_reports_close(got, want, rtol):
    for g, w in zip(got, want, strict=True):
        for term in ("I0", "I1", "I2", "I3", "I4", "residual", "unmodeled_remainder"):
            a, b = getattr(g, term), getattr(w, term)
            assert abs(a - b) <= rtol * abs(b), (term, a, b)
        # differences of two nearly equal residuals: relative to I0
        for term in ("radial_error_estimate", "angular_error_estimate"):
            assert abs(getattr(g, term) - getattr(w, term)) <= rtol * abs(w.I0), term


def test_sweep_equals_one_metric_calls():
    u, mts = _sweep_setup()
    ball = BallDomain(1.0, n_r=12, n_u=8, n_phi=8)
    sweep = pohozaev_balance(u, ONE, ZERO, ball, mts)
    singles = [pohozaev_balance(u, ONE, ZERO, ball, [mt])[0] for mt in mts]
    _assert_reports_close(sweep, singles, 1e-13)
    assert len({r.I4 for r in sweep}) == 3


def test_block_size_that_leaves_a_tail_block(monkeypatch):
    u, mts = _sweep_setup()
    ball = BallDomain(1.0, n_r=4, n_u=12, n_phi=10)
    # 1,200 directions on 4 shells: the default interior blocks take runs
    # of 4,096 // 4 = 1,024 directions (the last 176) when flat and of
    # 4,096 // (3 x 4) = 341 (the last 177) for three metrics, and split
    # the sphere into 512, 512 and 176; the patched ones take runs of
    # 1,000 // 4 = 250 (the last 200) and 1,000 // 12 = 83 (the last 38),
    # and split the sphere into 350 * 3 and 150.  The flat residual is
    # I0 - I1 alone, a difference of two near-equal sums, so like the error
    # estimates it is held relative to I0
    assert len(ball.s3_pts) % 1000 != 0
    default = [pohozaev_balance(u, ONE, ZERO, ball, entries) for entries in ((), mts)]
    monkeypatch.setattr(pohozaev, "JET_BLOCK", 1000)
    monkeypatch.setattr(pohozaev, "BOUNDARY_BLOCK", 350)
    (flat,), (want,) = pohozaev_balance(u, ONE, ZERO, ball), default[0]
    for term in ("I0", "I1"):
        assert abs(getattr(flat, term) - getattr(want, term)) <= 1e-13 * abs(getattr(want, term))
    assert (flat.I2, flat.I3, flat.I4) == (want.I2, want.I3, want.I4) == (0.0, 0.0, 0.0)
    for term in ("residual", "radial_error_estimate", "angular_error_estimate"):
        assert abs(getattr(flat, term) - getattr(want, term)) <= 1e-13 * abs(want.I0)
    _assert_reports_close(pohozaev_balance(u, ONE, ZERO, ball, mts), default[1], 1e-13)


def test_radial_jet_matches_central_differences_of_its_value():
    rng = np.random.default_rng(6)
    pts = rng.uniform(0.4, 1.5, (5, 4)) * rng.choice([-1.0, 1.0], (5, 4))
    for prof in (RescaledBubble(1.0), _LogProfile()):
        field = RadialProfileField(prof, tilt=[0.3, -0.2, 0.1, 0.25])
        jet = field.jet(pts, 3)
        fd = fd_jet(lambda p: field.jet(p, 0)[0], pts, 3, 1e-2)
        for order, tol in ((1, 1e-9), (2, 1e-8), (3, 1e-6)):
            assert np.max(np.abs(jet[order] - fd[order])) <= tol, order


class _CountingProfile:
    """RescaledBubble's closed forms, recording how many radii each call
    evaluates."""

    def __init__(self):
        self.bubble, self.sizes = RescaledBubble(1.0), []

    def radial(self, r):
        self.sizes.append(np.size(r))
        return self.bubble.radial(r)


@pytest.mark.parametrize("tilt", [None, [0.3, -0.2, 0.1, 0.25]], ids=["untilted", "tilted"])
def test_polar_jet_equals_the_pointwise_jet(tilt):
    # blocks of 8 shells x 112 directions with a tail of 104, and of 8
    # shells x 12 directions: the profile is evaluated once per shell
    # radius, the untilted value stays one per shell, and broadcast to the
    # block every entry is within a few ulp of the magnitude of the terms
    # of its closed form, as |r dirs| and r dirs / |r dirs| are of r and dirs
    prof = _CountingProfile()
    field = RadialProfileField(prof, tilt=tilt)
    ball = BallDomain(2.0, 8, 6, 6)
    t = 0.0 if tilt is None else np.abs(tilt).sum()
    eps = np.finfo(float).eps
    r = ball.radii[:, None]
    for d in (112, 12):
        for dirs, _ in ball.runs(d):
            prof.sizes.clear()
            polar = polar_jet(field, r, dirs, 3)
            assert prof.sizes == [len(r)]  # one call, with the shell radii
            block = (len(r), len(dirs))
            assert polar[0].shape == ((len(r), 1) if tilt is None else block)
            pointwise = field.jet(polar_points(r, dirs), 3)
            rr = np.repeat(r[:, 0], len(dirs))
            f0, f1, f2, f3 = (np.abs(g) for g in prof.bubble.radial(rr))
            scales = (f0 + rr * t, f1 + t, f2 + 2.0 * f1 / rr, f3 + 6.0 * (f2 + f1 / rr) / rr)
            for order, scale in enumerate(scales):
                want = pointwise[order]
                got = np.broadcast_to(polar[order], block + (4,) * order).reshape(want.shape)
                assert want.shape == (len(rr),) + (4,) * order
                gap = np.abs(got - want).reshape(len(rr), -1)
                assert np.all(gap <= 8.0 * eps * scale[:, None]), order


def test_polar_terms_of_constant_and_polynomial_fields_expand_to_their_jets():
    # polar_jet at a block's radii (s, 1) and directions is the pointwise
    # jet at polar_points(r, dirs): a constant's [c, 0, 0, 0] exactly, and a
    # quartic's within 16 ulp of the sum of the magnitudes of its monomial
    # terms, the jet of its coefficients' magnitudes at |x|
    ball = BallDomain(1.5, 6, 6, 6)
    poly = _PolyField(_random_poly(4, np.random.default_rng(2)))
    eps = np.finfo(float).eps
    r = ball.radii[:, None]
    for dirs, _ in ball.runs(16):
        xi = polar_points(r, dirs)
        block = (len(r), len(dirs))
        const = polar_jet(ConstantField(0.7), r, dirs, 3)
        for order, part in enumerate(const):
            want = np.full((len(xi),) + (4,) * order, 0.7 if order == 0 else 0.0)
            assert np.array_equal(np.broadcast_to(part, block + (4,) * order).reshape(want.shape), want)
        polar = polar_jet(poly, r, dirs, 3)
        for order, (got, want, mag) in enumerate(zip(polar, poly.jet(xi, 3), _term_magnitudes(poly, xi, 3))):
            got = np.broadcast_to(got, block + (4,) * order).reshape(want.shape)
            assert np.all(np.abs(got - want) <= 16.0 * eps * mag), order
            assert np.max(np.abs(want)) > 1.0  # every part is far from 0


@pytest.mark.parametrize("n_metrics", [1, 3])
def test_polar_table_matches_the_point_form(n_metrics):
    # runs of 166 directions x 6 shells and a tail run of 14: each degree's
    # table at the directions, times r^k and summed, is within 35 ulp of
    # the sum of the magnitudes of its 35 terms of the point form
    _, mts = _sweep_setup()
    tables = _tables(mts[:n_metrics])[0]
    full = np.empty((len(_MONOMIALS), tables[0].shape[1]))  # the rows of each degree joined
    for rows, t in zip(pohozaev._DEGREE_ROWS, tables):
        full[rows] = t
    assert full.shape == (len(_MONOMIALS), 40 * n_metrics)
    ball = BallDomain(1.0, 6, 8, 8)
    runs = list(ball.runs(166))
    assert [len(d) for d, _ in runs] == [166] * 3 + [14]
    r = ball.radii[:, None]
    for dirs, _ in runs:
        powers = np.hstack([np.ones_like(r), r, r * r, r * r * r])
        P = pohozaev._degree_tables(tables, dirs)
        got = (powers @ P.reshape(4, -1)).reshape(-1, full.shape[1])
        xi = polar_points(r, dirs)
        (want,) = _apply_jet_table(full, [(full.shape[1],)], xi)
        (mono,) = _apply_jet_table(np.eye(len(_MONOMIALS)), [(len(_MONOMIALS),)], xi)
        bound = 35.0 * np.finfo(float).eps * (np.abs(mono) @ np.abs(full))
        assert np.all(np.abs(got - want) <= bound)


def _contract_ricci(ric, xi, gu):
    """Ric_ij,l xi^l d_j u of each metric at each point, (n, k, 4), from
    ``ric`` (4, 16 k), Ric_ij,l of metric k at [l, 16 k + 4 i + j]."""
    M = (xi @ ric).reshape(len(xi), -1, 4, 4)
    return np.einsum("nkij,nj->nki", M, gu)


def test_ricci_moments_match_the_per_node_contraction():
    # I3 = 2 int_dO (xi.grad u) nu_i M_ij d_j u and I4 = -2 int_O (grad u +
    # hess u xi)_i M_ij d_j u, M_ij = Ric_ij,l xi^l formed at every node,
    # against the balance's metric-free moments: within 1e-13 of the sum of
    # the magnitudes of the terms, for a jet whose I3 and I4 are far from 0
    # and one (conformal normal) whose I3 and I4 cancel to rounding
    u = RadialProfileField(RescaledBubble(1.0), tilt=[0.3, -0.2, 0.1, 0.25])
    ball = BallDomain(1.5, 8, 6, 6)  # R != 1 tells xi from nu on the sphere
    jets = [_ricci_jet(), random_conformal_normal_jet(rng=3)]
    reps = pohozaev_balance(u, ONE, ZERO, ball, [metric_taylor_from_jet(j) for j in jets])
    ric1 = [ricci_of(j.R1).to_float() for j in jets]
    ric = np.hstack([r.transpose(2, 0, 1).reshape(4, 16) for r in ric1])
    xi, w = _interior_nodes(ball)
    _, gu, hu = u.jet(xi, 2)
    v = gu + np.einsum("nim,nm->ni", hu, xi)
    xb, wb, nu = ball.R * ball.s3_pts, ball.bdy_w, ball.s3_pts
    gub = u.jet(xb, 1)[1]
    xgu = np.einsum("ni,ni->n", xb, gub)
    I3 = 2.0 * np.einsum("nki,ni->kn", _contract_ricci(ric, xb, gub), nu) @ (wb * xgu)
    I4 = -2.0 * np.einsum("nki,ni->kn", _contract_ricci(ric, xi, gu), v) @ w
    for k, (rep, r1) in enumerate(zip(reps, ric1)):
        a = np.abs(r1)
        mag3 = 2.0 * np.abs(wb * xgu) @ np.einsum("ijl,nl,nj,ni->n", a, np.abs(xb), np.abs(gub), np.abs(nu))
        mag4 = 2.0 * w @ np.einsum("ijl,nl,nj,ni->n", a, np.abs(xi), np.abs(gu), np.abs(v))
        assert abs(rep.I3 - I3[k]) <= 1e-13 * mag3
        assert abs(rep.I4 - I4[k]) <= 1e-13 * mag4
    # the first jet's terms are far from rounding, the second's at it
    assert abs(reps[0].I3) > 1e-3 and abs(reps[0].I4) > 1e-3
    assert abs(reps[1].I3) < 1e-13 * mag3 and abs(reps[1].I4) < 1e-13 * mag4


def _term_magnitudes(field, xi, order):
    """The jet of ``field`` at the points ``xi`` up to ``order`` with each
    entry the sum of the magnitudes of its terms: for a ``_PolyField`` its
    monomial terms, the jet of its coefficients' magnitudes at |xi|; for
    another field its polar terms at r = |xi|, n = xi / r."""
    if isinstance(field, _PolyField):
        magnitude = _PolyField(_RING(0))
        magnitude.coef = {index: np.abs(c) for index, c in field.coef.items()}
        return magnitude.jet(np.abs(xi), order)
    r = np.linalg.norm(xi, axis=1)
    terms = field.polar_terms(r, xi / r[:, None], order)
    return [
        _expand(np.abs(R), [tuple(map(np.abs, a)) if isinstance(a, tuple) else np.abs(a) for a in A], k)
        for k, (R, A) in enumerate(terms)
    ]


def _per_node_interior(u, h, b, ball, mts):
    """The interior sums over ``ball`` of u, h and the constant ``b``, with
    the metrics ``mts``, as the balance formed them before it separated
    the variables: u's and h's Cartesian jets at every node of the product
    rule, the interior table at the nodes by its point form, one einsum
    each for lap u and the I2 metric part, and the Ricci moments node by
    node.  Returns the sums I0, the b term, the tail, each metric's I2 part
    and the 64 moments, and the bound of each: the sum over the nodes of w
    times the magnitudes of its terms."""
    xi = (ball.radii[:, None, None] * ball.s3_pts).reshape(-1, 4)
    w, r2 = ball.int_w, np.repeat(ball.radii**2, len(ball.s3_pts))
    uv, gu, hu = u.jet(xi, 2)
    um, gum, hum = _term_magnitudes(u, xi, 2)
    hv, gh = h.jet(xi, 1)
    hm, ghm = _term_magnitudes(h, xi, 1)
    e4u, ax = np.exp(4.0 * uv), np.abs(xi)
    hess = np.sqrt(np.einsum("nij,nij->n", hu, hu))
    sums = [
        w @ ((2.0 * hv + 0.5 * np.einsum("ni,ni->n", xi, gh)) * e4u),
        w @ (b * np.einsum("ni,ni->n", xi, gu)),
        w @ (r2 * np.einsum("ni,ni->n", gu, gu) + r2 * r2 * hess),
    ]
    bounds = [
        w @ ((2.0 * hm + 0.5 * np.einsum("ni,ni->n", ax, ghm)) * e4u * (1.0 + 4.0 * um)),
        w @ (abs(b) * np.einsum("ni,ni->n", ax, gum)),
        w @ (r2 * np.einsum("ni,ni->n", gum, gum) + r2 * r2 * np.einsum("nij,nij->n", hum, hum) / hess),
    ]
    # the interior table at the nodes: A, g^{ij}, A + EA, E g^{-1} per metric
    tables = _tables(mts)[0]
    full = np.empty((len(_MONOMIALS), tables[0].shape[1]))
    for rows, t in zip(pohozaev._DEGREE_ROWS, tables):
        full[rows] = t
    (vals,) = _apply_jet_table(full, [(full.shape[1],)], xi)
    (mono,) = _apply_jet_table(np.eye(len(_MONOMIALS)), [(len(_MONOMIALS),)], xi)
    d = np.hstack([gu, hu.reshape(-1, 16)])
    dm = np.hstack([gum, hum.reshape(-1, 16)])
    lap, metric = np.einsum("nkaj,nj->akn", vals.reshape(len(xi), -1, 2, 20), d)
    lm, mm = np.einsum("nkaj,nj->akn", (np.abs(mono) @ np.abs(full)).reshape(len(xi), -1, 2, 20), dm)
    sums.extend((lap * metric) @ w)
    bounds.extend((lm * mm) @ w)
    v = gu + np.einsum("nim,nm->ni", hu, xi)
    vm = gum + np.einsum("nim,nm->ni", hum, ax)
    for a, g, x in ((v, gu, xi), (vm, gum, ax)):
        moments = (np.einsum("ni,nj->nij", a, g).reshape(-1, 16).T @ (w[:, None] * x)).reshape(-1)
        (sums if a is v else bounds).extend(moments)
    return np.array(sums), np.array(bounds)


@pytest.mark.parametrize("n_metrics", [1, 3])
@pytest.mark.parametrize("case", ["untilted", "tilted", "poly"])
def test_interior_sums_match_the_per_node_oracle(case, n_metrics):
    # the separated interior against the per-node one: I0, the b term, the
    # tail, each I2 metric part and the 64 Ricci moments are each within
    # 64 eps of the sum of the magnitudes of its terms.  Six shells of
    # 1,200 directions: runs of 682 directions (one metric) or 227 (three)
    # and a shorter tail run.  h has a gradient and b is not 0, so neither
    # of their terms is trivially 0
    tilt = {"untilted": None, "tilted": [0.3, -0.2, 0.1, 0.25]}.get(case)
    if case == "poly":
        u = _PolyField(_random_poly(4, np.random.default_rng(7)))
    else:
        u = RadialProfileField(RescaledBubble(1.0), tilt=tilt)
    h, b = RadialProfileField(_QuadraticProfile(0.1)), 0.7
    ball = BallDomain(1.3, 6, 12, 10)
    mts = _sweep_setup()[1][:n_metrics]
    runs = [len(d) for d, _ in ball.runs(JET_BLOCK // (n_metrics * ball.n_r))]
    assert len(set(runs)) == 2 and runs[-1] < runs[0]
    I0, bxgu, tail, I2m, S = pohozaev._interior_sums(u, h, ConstantField(b), ball, _tables(mts)[0])
    got = np.array([I0, bxgu, tail, *I2m, *S])
    want, bound = _per_node_interior(u, h, b, ball, mts)
    assert got.shape == want.shape == (3 + n_metrics + 64,)
    tol = 64.0 * np.finfo(float).eps * bound
    assert np.all(np.abs(got - want) <= tol)
    # I0, the b term and the tail are far from 0, and far above their tolerance
    assert np.all(tol[:3] < 1e-11 * np.abs(want[:3]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tilt", [None, [0.3, -0.2, 0.1, 0.25]], ids=["untilted", "tilted"])
def test_radial_jet_at_the_origin_is_its_limit(tilt):
    # at r = 0, q = f'/r is its limit f''(0): the gradient is the tilt and
    # the Hessian f''(0) delta, with no warning, and a point off the origin
    # keeps the bits of its own call; the third derivative is refused there
    prof = RescaledBubble(1.0)
    field = RadialProfileField(prof, tilt=tilt)
    pts = np.array([[0.0, 0.0, 0.0, 0.0], [0.3, -0.2, 0.5, 0.1]])
    jet = field.jet(pts, 2)
    f0, _, f2, _ = prof.radial(0.0)
    assert jet[0][0] == f0
    assert np.array_equal(jet[1][0], np.zeros(4) if tilt is None else tilt)
    assert np.array_equal(jet[2][0], f2 * np.eye(4))
    for part, alone in zip(jet, field.jet(pts[1:], 2)):
        assert np.array_equal(part[1:], alone)
    assert len(field.jet(pts[1:], 3)) == 4
    with pytest.raises(DerivativeOrderError, match="origin"):
        field.jet(pts, 3)


def test_interior_expands_no_cartesian_derivative(monkeypatch):
    # the interior expands values alone and forms the rest from the terms:
    # every part of order >= 1 expanded in a flat balance or a curved sweep
    # is the sphere's, whose flux reads u's Cartesian jet to order 3
    u, mts = _sweep_setup()
    ball = BallDomain(1.0, n_r=8, n_u=8, n_phi=10)
    expanded, sphere = [], [False]
    real_expand, real_boundary = fields._expand, pohozaev._boundary_terms

    def recording_expand(R, A, k):
        expanded.append((k, sphere[0]))
        return real_expand(R, A, k)

    def recording_boundary(*args):
        sphere[0] = True
        try:
            return real_boundary(*args)
        finally:
            sphere[0] = False

    monkeypatch.setattr(fields, "_expand", recording_expand)
    monkeypatch.setattr(pohozaev, "_expand", recording_expand)
    monkeypatch.setattr(pohozaev, "_boundary_terms", recording_boundary)
    pohozaev_balance(u, ONE, ZERO, ball)
    pohozaev_balance(u, ONE, ZERO, ball, mts)
    assert {k for k, on_sphere in expanded if not on_sphere} == {0}
    assert {k for k, on_sphere in expanded if on_sphere} == {0, 1, 2, 3}
