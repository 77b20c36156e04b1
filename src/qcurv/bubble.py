"""Standard bubbles, linearized kernel, mass integrals, weighted sup-norms.

The rescaled profile is U(y) = -log(1 + rho |y|^2) with rho = sqrt(H)/(4 sqrt 3)
(so rho^2 = H/48), which satisfies Delta^2 U = 2 H e^{4U} identically on R^4.
Its radial derivatives are closed forms obtained by the chain rule in
s = rho r^2, which ``RescaledBubble.radial`` returns as one list:

    U'        = -2 rho r / (1+s)
    U''       = -2 rho (1-s) / (1+s)^2
    U'''      =  4 rho^2 r (3-s) / (1+s)^3
    Delta^2 U =  96 rho^2 / (1+s)^4
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import gauss_legendre, S3_AREA

H_FLOOR = 1e-3  # default lower bound c0 for H

RHO0 = 1.0 / (4.0 * np.sqrt(3.0))  # rho at the lemma normalization H = 1

MASS_LIMIT = 16.0 * np.pi**2


@dataclass(frozen=True)
class BubbleParams:
    """Unscaled bubble U_{p,eps,H}(xi) = -log(eps + sqrt(H) d^2 / (4 sqrt(3) eps))."""

    p: tuple
    eps: float
    H: float

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.H < H_FLOOR:
            raise ValueError(f"H must be >= {H_FLOOR}")


def bubble_eval(b: BubbleParams, d):
    """Profile value at distance d >= 0 from the center."""
    d = np.asarray(d, float)
    if np.any(d < 0):
        raise ValueError("distance must be nonnegative")
    return -np.log(b.eps + np.sqrt(b.H) * d**2 / (4.0 * np.sqrt(3.0) * b.eps))


@dataclass(frozen=True)
class RescaledBubble:
    """U(y) = -log(1 + rho |y|^2), the H-normalized entire solution; its
    closed forms ``radial``, ``bilap`` and ``exp4u`` take radii r = |y|."""

    H: float = 1.0

    @property
    def rho(self):
        return np.sqrt(self.H) / (4.0 * np.sqrt(3.0))

    def _s(self, r):
        return self.rho * np.asarray(r, float) ** 2

    def radial(self, r):
        """``[U, U', U'', U''']`` at the radii ``r``, from one s and one 1 + s."""
        r = np.asarray(r, float)
        rho, s = self.rho, self._s(r)
        t = 1.0 + s
        return [
            -np.log1p(s),
            -2.0 * rho * r / t,
            -2.0 * rho * (1.0 - s) / t**2,
            4.0 * rho**2 * r * (3.0 - s) / t**3,
        ]

    def bilap(self, r):
        s = self._s(r)
        return 96.0 * self.rho**2 / (1.0 + s) ** 4

    def exp4u(self, r):
        return 1.0 / (1.0 + self._s(r)) ** 4


def rescaling_identity_gap(b: BubbleParams, xi):
    """|U_{p,eps,H}(xi) - (U((xi-p)/eps) - log eps)|, identically 0."""
    xi = np.asarray(xi, float)
    d = np.linalg.norm(xi - np.asarray(b.p, float))
    lhs = float(bubble_eval(b, d))
    rb = RescaledBubble(H=b.H)
    rhs = float(rb.radial(d / b.eps)[0]) - np.log(b.eps)
    return abs(lhs - rhs)


def bubble_pde_residual(rb: RescaledBubble, y):
    """Delta^2 U - 2 H e^{4U} at points y (n, 4); analytically zero."""
    r = np.linalg.norm(y, axis=1)
    return rb.bilap(r) - 2.0 * rb.H * rb.exp4u(r)


def kernel_elements(y):
    """The five bounded solutions of Delta^2 phi = 8 e^{4U} phi at H = 1
    and their closed-form bi-Laplacians at points y (n, 4), as (val, bilap),
    each (5, n): row 0 is psi_0 = (1-s)/(1+s) (dilation) and row j the
    translation psi_j = y_j/(1+s), where s = |y|^2 / (4 sqrt 3), with

        Delta^2 psi_0 = 8 (1-s)(1+s)^{-5}
        Delta^2 psi_j = 8 y_j (1+s)^{-5}
    """
    y = np.atleast_2d(np.asarray(y, float))
    s = RHO0 * np.sum(y**2, axis=1)
    val = np.vstack([(1.0 - s) / (1.0 + s), y.T / (1.0 + s)])
    bilap = np.vstack([8.0 * (1.0 - s) / (1.0 + s) ** 5, 8.0 * y.T / (1.0 + s) ** 5])
    return val, bilap


def linearized_residual(y):
    """Delta^2 psi - 8 e^{4U} psi at H = 1 of each kernel element at points
    y (n, 4), (5, n); analytically zero."""
    rb = RescaledBubble(H=1.0)
    val, bilap = kernel_elements(y)
    return bilap - 8.0 * rb.exp4u(np.linalg.norm(y, axis=1)) * val


def mass_integral(rb: RescaledBubble, R, n_r=64):
    """2 H * integral of e^{4U} over B_R, by composite radial quadrature."""
    if R < 0:
        raise ValueError("R must be nonnegative")
    if R == 0:
        return 0.0
    edges = [0.0]
    e = min(1.0, R)
    while e < R:
        edges.append(e)
        e *= 4.0
    edges.append(R)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        r, w = gauss_legendre(n_r, a, b)
        total += float(np.sum(w * r**3 * rb.exp4u(r)))
    return 2.0 * rb.H * S3_AREA * total


def mass_integral_exact(rb: RescaledBubble, R):
    """Closed form of mass_integral: 96 pi^2 [F(T) - F(0)], T = rho R^2,
    with F(t) = -1/2 (1+t)^{-2} + 1/3 (1+t)^{-3}."""
    T = rb.rho * R**2

    def F(t):
        return -0.5 / (1.0 + t) ** 2 + 1.0 / (3.0 * (1.0 + t) ** 3)

    return 96.0 * np.pi**2 * (F(T) - F(0.0))


def weighted_sup_norm(u, b: BubbleParams, tau, delta, n=2000, rng=None):
    """tau-weighted sup norm of u - U_{p,eps,H} outside the core d < eps.

    ``u`` maps points (m, 4) to values.  Returns (outer, core) where outer =
    sup_{eps<=d<=delta} |u - U| / d^tau and core = sup_{d<eps} |u - U| / eps^tau.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1)")
    rng = np.random.default_rng(rng)
    p = np.asarray(b.p, float)

    def sample_shell(d_lo, d_hi, m):
        d = np.exp(rng.uniform(np.log(max(d_lo, 1e-12)), np.log(d_hi), m))
        v = rng.standard_normal((m, 4))
        v /= np.linalg.norm(v, axis=1)[:, None]
        return p + d[:, None] * v, d

    pts, d = sample_shell(b.eps, delta, n)
    diff = np.abs(np.asarray(u(pts), float) - bubble_eval(b, d))
    outer = float(np.max(diff / d**tau))

    pts_c, d_c = sample_shell(b.eps * 1e-3, b.eps, n // 4)
    diff_c = np.abs(np.asarray(u(pts_c), float) - bubble_eval(b, d_c))
    core = float(np.max(diff_c) / b.eps**tau)
    return outer, core
