import numpy as np

from qcurv.quadrature import (
    BALL4_VOL,
    S3_AREA,
    ball_rule,
    gauss_legendre,
    s3_nodes,
    sphere_rule,
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
    pts, w = sphere_rule(3.0, 16, 16)
    assert abs(np.sum(w) - S3_AREA * 27.0) < 1e-8
    assert np.allclose(np.linalg.norm(pts, axis=1), 3.0)


def test_ball_rule_volume_and_moment():
    pts, w = ball_rule(2.0, n_r=32, n_u=16, n_phi=16)
    assert abs(np.sum(w) - BALL4_VOL * 16.0) < 1e-8
    r2 = np.sum(pts**2, axis=1)
    exact = S3_AREA * 2.0**6 / 6.0  # integral of r^2 over the ball
    assert abs(np.sum(w * r2) - exact) < 1e-8
