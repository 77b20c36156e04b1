"""Quadrature rules: Gauss-Legendre intervals and S^3 product rules.

S^3 is parametrized by Hopf coordinates (eta, phi1, phi2):

    x = (cos(eta) cos(phi1), cos(eta) sin(phi1),
         sin(eta) cos(phi2), sin(eta) sin(phi2)),   eta in [0, pi/2]

with area element sin(eta) cos(eta) d(eta) d(phi1) d(phi2).  Substituting
u = sin^2(eta) turns the eta-integral into (1/2) * du over [0,1], which a
Gauss rule handles exactly for polynomial integrands; the two angles use
trapezoid rules (spectrally accurate for periodic integrands).
"""

from functools import lru_cache

import numpy as np

S3_AREA = 2.0 * np.pi**2  # area of the unit 3-sphere
BALL4_VOL = np.pi**2 / 2.0  # volume of the unit 4-ball


def _legendre(n, x):
    """P_n(x) and P_n'(x) by the three-term recurrence (|x| < 1)."""
    p0, p1 = np.ones_like(x), x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


@lru_cache
def _legendre_rule(n):
    """Read-only n-point Gauss-Legendre nodes and weights on [-1, 1].

    Golub-Welsch start (the eigenvalues of the Jacobi matrix), two Newton
    polishes of the nodes on P_n, and weights 2 / ((1 - x^2) P_n'(x)^2).
    """
    if n < 1:
        raise ValueError("a Gauss-Legendre rule needs n >= 1")
    k = np.arange(1, n)
    x = np.linalg.eigvalsh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    for _ in range(2):
        p, dp = _legendre(n, x)
        x = x - p / dp
    x = 0.5 * (x - x[::-1])  # exactly symmetric
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre(n, a=0.0, b=1.0):
    """Nodes and weights for Gauss-Legendre on [a, b]."""
    x, w = _legendre_rule(int(n))
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def s3_nodes(n_u=24, n_phi=24):
    """Quadrature nodes (m, 4) and weights on the unit S^3.

    Weights sum to 2*pi^2 exactly (up to roundoff).
    """
    u, wu = gauss_legendre(n_u, 0.0, 1.0)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    wphi = 2.0 * np.pi / n_phi

    su = np.sqrt(u)  # sin(eta)
    cu = np.sqrt(1.0 - u)  # cos(eta)
    cphi, sphi = np.cos(phi), np.sin(phi)

    pts = np.empty((n_u, n_phi, n_phi, 4))
    pts[..., 0] = cu[:, None, None] * cphi[None, :, None]
    pts[..., 1] = cu[:, None, None] * sphi[None, :, None]
    pts[..., 2] = su[:, None, None] * cphi[None, None, :]
    pts[..., 3] = su[:, None, None] * sphi[None, None, :]

    w = 0.5 * wu[:, None, None] * wphi * wphi * np.ones((n_u, n_phi, n_phi))
    return pts.reshape(-1, 4), w.reshape(-1)

