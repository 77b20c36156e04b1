import numpy as np
import pytest

from qcurv.cnc import JET_BLOCK
from qcurv.fields import polar_points
from qcurv.pohozaev import BallDomain
from qcurv.quadrature import (
    BALL4_VOL,
    S3_AREA,
    gauss_legendre,
    s3_nodes,
)


def test_gauss_legendre_polynomial_exactness():
    x, w = gauss_legendre(6, 0.0, 2.0)
    # degree-11 polynomials are exact for a 6-point rule
    assert abs(np.sum(w * x**11) - 2.0**12 / 12.0) < 1e-10


def test_s3_nodes_area_and_moments():
    pts, w = s3_nodes(24, 24)
    assert abs(np.sum(w) - S3_AREA) < 1e-10
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)
    # second moments: area / 4 per axis
    for a in range(4):
        assert abs(np.sum(w * pts[:, a] ** 2) - S3_AREA / 4.0) < 1e-10
    # odd moments vanish
    assert np.max(np.abs(pts.T @ w)) < 1e-12


def test_sphere_rule_scales_with_radius():
    # the ball's boundary rule is its unit S^3 rule scaled to |x| = R
    ball = BallDomain(3.0, n_r=4, n_u=16, n_phi=16)
    assert abs(np.sum(ball.bdy_w) - S3_AREA * 27.0) < 1e-8
    pts = np.concatenate([polar_points(r, dirs) for r, dirs, _, _ in ball.blocks(JET_BLOCK, True)])
    assert np.allclose(np.linalg.norm(pts, axis=1), 3.0)
    assert np.array_equal(pts, 3.0 * s3_nodes(16, 16)[0])


def test_ball_rule_volume_and_moment():
    ball = BallDomain(2.0, n_r=32, n_u=16, n_phi=16)
    blocks = list(ball.blocks(JET_BLOCK))
    pts = np.concatenate([polar_points(r, dirs) for r, dirs, _, _ in blocks])
    w = np.concatenate([(ws[:, None] * wd).reshape(-1) for _, _, ws, wd in blocks])
    # the blocks hold the product rule's nodes in another order
    assert np.array_equal(np.sort(w), np.sort(ball.int_w))
    assert abs(np.sum(w) - BALL4_VOL * 16.0) < 1e-8
    r2 = np.sum(pts**2, axis=1)
    exact = S3_AREA * 2.0**6 / 6.0  # integral of r^2 over the ball
    assert abs(np.sum(w * r2) - exact) < 1e-8


def _mp_legendre_rule(n):
    """Gauss-Legendre on [-1, 1] to 30 digits: Newton on the three-term
    recurrence from the cos(pi (i - 1/4) / (n + 1/2)) estimates."""
    import mpmath

    with mpmath.workdps(30):
        xs, ws = [], []
        for i in range(n, 0, -1):
            x = mpmath.cos(mpmath.pi * (i - mpmath.mpf(1) / 4) / (n + mpmath.mpf(1) / 2))
            for _ in range(100):
                p0, p1 = mpmath.mpf(1), x
                for k in range(2, n + 1):
                    p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
                dp = n * (x * p1 - p0) / (x * x - 1)
                x -= p1 / dp
                if abs(p1 / dp) < mpmath.mpf(10) ** -28:
                    break
            xs.append(float(x))
            ws.append(float(2 / ((1 - x * x) * dp * dp)))
    return np.array(xs), np.array(ws)


@pytest.mark.parametrize("n", [8, 12, 16, 24, 32, 48, 50, 64])
def test_gauss_legendre_matches_30_digit_rule(n):
    x, w = gauss_legendre(n, -1.0, 1.0)
    xr, wr = _mp_legendre_rule(n)
    assert np.max(np.abs(x - xr)) <= 2.3e-16
    assert np.max(np.abs(w / wr - 1.0)) <= 2e-13
