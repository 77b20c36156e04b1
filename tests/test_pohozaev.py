from fractions import Fraction

import numpy as np
import pytest

from qcurv.bubble import MASS_LIMIT, RescaledBubble
from qcurv.cnc import metric_taylor_from_jet, random_conformal_normal_jet, scale_jet
from qcurv.pohozaev import (
    BallDomain,
    RadialProfileField,
    energy_balance,
    flat_boundary_functional,
    pohozaev_balance,
    radial_third_derivative,
)


def const_h(c):
    return lambda pts: np.full(len(np.atleast_2d(pts)), c)


def zero_b(pts):
    return np.zeros(len(np.atleast_2d(pts)))


def test_ball_domain_invariants():
    ball = BallDomain(3.0, n_r=16, n_u=12, n_phi=12)
    # weight sums are validated on construction; normals are unit radial
    assert np.allclose(np.linalg.norm(ball.normals, axis=1), 1.0)
    assert np.allclose(ball.bdy_pts, 3.0 * ball.normals)


def test_flat_identity_exact_bubble():
    rb = RescaledBubble(1.0)
    u = RadialProfileField(rb)
    ball = BallDomain(20.0, n_r=48, n_u=24, n_phi=24)
    rep = pohozaev_balance(u, const_h(1.0), zero_b, ball)
    assert abs(rep.residual) / abs(rep.I0) < 1e-4
    # flat metric reports the curvature terms as exact zeros
    assert rep.I2 == 0.0 and rep.I3 == 0.0 and rep.I4 == 0.0
    assert rep.error_estimate < 1e-3 * abs(rep.I0)


def test_flat_identity_negative_control():
    # mismatched h: u still solves the equation with h = 1, so scaling h
    # breaks the balance by a margin far above the quadrature error bound
    rb = RescaledBubble(1.0)
    u = RadialProfileField(rb)
    ball = BallDomain(20.0, n_r=48, n_u=24, n_phi=24)
    rep = pohozaev_balance(u, const_h(1.5), zero_b, ball)
    assert abs(rep.residual) > 10.0 * max(rep.error_estimate, 1e-6)


def test_boundary_functional_radial_vanishes():
    rb = RescaledBubble(1.0)
    out = flat_boundary_functional(RadialProfileField(rb), BallDomain(10.0))
    assert np.max(np.abs(out)) < 1e-10


def test_boundary_functional_first_order_in_tilt():
    rb = RescaledBubble(1.0)
    ball = BallDomain(10.0)
    beta = 1e-3
    b1 = flat_boundary_functional(RadialProfileField(rb, tilt=[beta, 0, 0, 0]), ball)
    b2 = flat_boundary_functional(RadialProfileField(rb, tilt=[beta / 2, 0, 0, 0]), ball)
    assert abs(b1[0]) > 0
    # the functional is first order in the tilt: halving beta halves it
    assert abs(b1[0] / b2[0] - 2.0) < 0.05
    # components orthogonal to the tilt stay at the symmetry zero
    assert np.max(np.abs(b1[1:])) < 1e-6 * abs(b1[0])


class _Quadratic:
    def d1(self, r):
        return 2.0 * np.asarray(r, float)

    def d2(self, r):
        return 2.0 * np.ones_like(np.asarray(r, float))

    def d3(self, r):
        return np.zeros_like(np.asarray(r, float))


class _LogProfile:
    def f(self, r):
        return np.log(1.0 + np.asarray(r, float) ** 2)

    def d1(self, r):
        r = np.asarray(r, float)
        return 2.0 * r / (1.0 + r**2)

    def d2(self, r):
        r = np.asarray(r, float)
        return 2.0 * (1.0 - r**2) / (1.0 + r**2) ** 2

    def d3(self, r):
        r = np.asarray(r, float)
        return 4.0 * r * (r**2 - 3.0) / (1.0 + r**2) ** 3


def test_radial_third_derivative_of_r_squared_vanishes():
    prof = _Quadratic()
    y = np.array([0.7, -0.3, 0.2, 0.5])
    for i in range(4):
        for m in range(4):
            for l in range(4):
                assert abs(radial_third_derivative(prof, y, i, m, l)) < 1e-14


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
            return prof.f(np.linalg.norm(p))

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
        assert abs(radial_third_derivative(prof, y, i, m, l) - fd) < 1e-3


def test_radial_third_derivative_traces_to_gradient_of_laplacian():
    prof = _LogProfile()
    rng = np.random.default_rng(5)
    for _ in range(10):
        y = rng.uniform(0.5, 2.0, 4) * rng.choice([-1.0, 1.0], 4)
        r = float(np.linalg.norm(y))
        # d_r of lap f = f''' + 3 f''/r - 3 f'/r^2
        dlap = float(prof.d3(r) + 3.0 * prof.d2(r) / r - 3.0 * prof.d1(r) / r**2)
        for i in range(4):
            tr = sum(radial_third_derivative(prof, y, i, m, m) for m in range(4))
            assert abs(tr - dlap * y[i] / r) < 1e-10


def test_radial_third_derivative_origin_rejected():
    with pytest.raises(ValueError):
        radial_third_derivative(_LogProfile(), np.zeros(4), 0, 0, 0)


def test_energy_balance_limit_and_decay():
    rb = RescaledBubble(1.0)
    rows = energy_balance(rb, lambda r: np.ones_like(np.asarray(r, float)), [5.0, 10.0, 20.0, 40.0])
    alphas = [row["alpha"] for row in rows]
    gaps = [abs(row["gap"]) for row in rows]
    assert all(b > a for a, b in zip(alphas[:-1], alphas[1:]))
    assert abs(alphas[-1] - MASS_LIMIT) / MASS_LIMIT < 0.02
    # the mismatch decays with the ball radius, consistent with an R^-4 tail
    slope = np.polyfit(np.log([r["R"] for r in rows]), np.log(gaps), 1)[0]
    assert slope < -3.0
    assert gaps[-1] / abs(rows[-1]["B"]) < 1e-3


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
        rep = pohozaev_balance(u, const_h(1.0), zero_b, ball, metric_taylor=mt, jet=sj, _estimate=False)
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
