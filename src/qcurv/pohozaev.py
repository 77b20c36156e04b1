"""Pohozaev-identity quadrature for Delta_g^2 u + 2b = 2 h e^{4u}.

The identity is evaluated term by term over a ball in the det-one gauge:

  I0 = int_O  2 h e^{4u} + (1/2) xi.grad(h) e^{4u}
  I1 = int_dO (1/2) h e^{4u} xi.nu - g^{ij} d_i(lap u) (xi.grad u) nu_j
              + g^{ij} lap u d_i u nu_j + g^{ij} lap u xi^m d_im u nu_j
              - (1/2) (lap u)^2 xi.nu
  I2 = int_O  lap u d_i g^{ij} d_j u + xi^m lap u d_im g^{ij} d_j u
              + xi^m lap u d_m g^{ij} d_ij u - 2 b xi.grad u
  I3 = 2 int_dO R_ij,l(0) xi^l xi^m nu_i d_j u d_m u
  I4 = - int_O 2 R_ij,l(0) (xi^l d_j u d_i u + xi^m xi^l d_j u d_im u)

residual = I0 - (I1 + I2 + I3 + I4).  On the flat metric the curvature
and metric-derivative terms vanish identically and are reported as exact
zeros, and the interior Hessian of u is never evaluated.

The interior needs no second derivative of g^{ij}.  The Euler operator
E = xi^m d_m multiplies the degree-k part of a polynomial by k, so with
A_j = d_i g^{ij} the terms read xi^m d_im g^{ij} = (E A)_j and
xi^m d_m g^{ij} = (E g^{-1})^{ij}, and

  lap u = A.grad u + g^{ij} d_ij u,
  I2 metric part = int_O lap u ((A + E A).grad u + (E g^{-1}) : hess u).

The interior nodes evaluate the values of the 40 exact polynomials g^{ij},
A, A + E A and E g^{-1}; only the boundary nodes, whose flux needs
d_i(lap u), evaluate the order-2 jet of g^{ij}.  I3 and I4 contract
M_ij = R_ij,l(0) xi^l with grad u once per node.

The curved identity leaves out the degree >= 4 tail of the metric
expansion.  ``unmodeled_remainder`` bounds that tail's share, sized from
the cubic Taylor coefficients: eps3 int_O (r^2 |grad u|^2 + r^4 |hess u|),
eps3 the largest of them.  It is a bound on the omitted terms, not an
estimate of the residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cnc import (
    DEGREE, concatenate, detone_laplacian, inverse_metric_taylor, poly_diff, poly_jet,
    ricci_of,
)
from .quadrature import ball_rule, sphere_rule, BALL4_VOL, S3_AREA


@dataclass
class BallDomain:
    """Origin-centered ball with polar interior and boundary rules."""

    R: float
    n_r: int = 48
    n_u: int = 24
    n_phi: int = 24

    def __post_init__(self):
        self.int_pts, self.int_w = ball_rule(self.R, self.n_r, self.n_u, self.n_phi)
        self.bdy_pts, self.bdy_w = sphere_rule(self.R, self.n_u, self.n_phi)
        vol = BALL4_VOL * self.R**4
        area = S3_AREA * self.R**3
        if abs(self.int_w.sum() - vol) > 1e-8 * vol:
            raise RuntimeError("interior weights do not sum to the ball volume")
        if abs(self.bdy_w.sum() - area) > 1e-8 * area:
            raise RuntimeError("boundary weights do not sum to the sphere area")

    @property
    def normals(self):
        return self.bdy_pts / self.R


class RadialProfileField:
    """Order-3 jet of a radial function u(y) = f(|y|) from closed forms.

    ``profile`` must expose val_r/d1/d2/d3 (e.g. RescaledBubble).
    """

    def __init__(self, profile, tilt=None):
        self.profile = profile
        self.tilt = None if tilt is None else np.asarray(tilt, float)

    def _r(self, pts):
        r = pts[:, 0] * pts[:, 0]  # np.linalg.norm(pts, axis=1) to the bit, in place
        for x in pts.T[1:]:
            r += x * x
        return np.sqrt(r, out=r)

    def val(self, pts):
        pts = np.atleast_2d(np.asarray(pts, float))
        v = self.profile.val_r(self._r(pts))
        if self.tilt is not None:
            v = v + pts @ self.tilt
        return v

    def grad(self, pts):
        pts = np.atleast_2d(np.asarray(pts, float))
        r = self._r(pts)
        g = self.profile.d1(r)[:, None] * pts / r[:, None]
        if self.tilt is not None:
            g = g + self.tilt[None, :]
        return g

    def hess(self, pts):
        pts = np.atleast_2d(np.asarray(pts, float))
        r = self._r(pts)
        f1, f2 = self.profile.d1(r), self.profile.d2(r)
        n = pts / r[:, None]
        eye = np.eye(4)
        rad = (f2 - f1 / r)[:, None, None]
        return (
            rad * n[:, :, None] * n[:, None, :]
            + (f1 / r)[:, None, None] * eye[None, :, :]
        )

    def third(self, pts):
        """d_iml f(|y|) at each point, with n = y / r:

            (f''' - 3f''/r + 3f'/r^2) n_i n_m n_l
          + (f'' - f'/r) (delta_il n_m + delta_im n_l + delta_ml n_i) / r

        The source display's last coefficient reads (f'' - f'), which fails
        the FD cross-check of ``qcurv pohozaev``; (f'' - f'/r) passes.
        """
        pts = np.atleast_2d(np.asarray(pts, float))
        r = self._r(pts)
        f1, f2, f3 = self.profile.d1(r), self.profile.d2(r), self.profile.d3(r)
        n = pts / r[:, None]
        eye = np.eye(4)
        a = (f3 - 3.0 * f2 / r + 3.0 * f1 / r**2)[:, None, None, None]
        b = ((f2 - f1 / r) / r)[:, None, None, None]
        nnn = n[:, :, None, None] * n[:, None, :, None] * n[:, None, None, :]
        sym = (
            eye[None, :, :, None] * n[:, None, None, :]
            + eye[None, :, None, :] * n[:, None, :, None]
            + eye[None, None, :, :] * n[:, :, None, None]
        )
        return a * nnn + b * sym


@dataclass
class PohozaevReport:
    I0: float
    I1: float
    I2: float
    I3: float
    I4: float
    error_estimate: float
    unmodeled_remainder: float = 0.0

    @property
    def residual(self):
        return self.I0 - (self.I1 + self.I2 + self.I3 + self.I4)


def pohozaev_balance(
    u,
    h,
    b,
    ball: BallDomain,
    metric_taylor=None,
    _estimate=True,
) -> PohozaevReport:
    """Term-by-term Pohozaev report.

    ``u`` is an order-3 jet object with val/grad/hess/third over points,
    such as RadialProfileField; ``h`` and ``b`` are callables over points
    (m, 4) -> values, and ``h.gradient`` is used when it exists (else grad h
    is taken as zero).  Flat metric when ``metric_taylor`` is None; I3 and
    I4 read the Ricci derivatives of its curvature jet ``metric_taylor.jet``.
    """
    xi_i, w_i = ball.int_pts, ball.int_w
    xi_b, w_b = ball.bdy_pts, ball.bdy_w
    nu = ball.normals

    hv = np.asarray(h(xi_i), float)
    grad_h = h.gradient(xi_i) if hasattr(h, "gradient") else np.zeros_like(xi_i)
    bv = np.asarray(b(xi_i), float)
    uv = u.val(xi_i)
    gu_i = u.grad(xi_i)
    gu_b = u.grad(xi_b)
    hu_b = u.hess(xi_b)
    tu_b = u.third(xi_b)
    hv_b = np.asarray(h(xi_b), float)
    uv_b = u.val(xi_b)

    flat = metric_taylor is None
    if flat:
        lap_b = np.trace(hu_b, axis1=1, axis2=2)
        glap_b = np.einsum("naai->ni", tu_b)
        ginv_b = np.broadcast_to(np.eye(4), (len(xi_b), 4, 4))
    else:
        # the boundary needs d_i lap u, so the order-2 jet of g^{ij}
        inv = inverse_metric_taylor(metric_taylor).comps
        jet_b = poly_jet(inv, xi_b, 2)
        lap_b, glap_b = detone_laplacian(jet_b, gu_b, hu_b, tu_b)
        ginv_b = jet_b[0]

    e4u = np.exp(4.0 * uv)
    e4u_b = np.exp(4.0 * uv_b)

    I0 = float(np.sum(w_i * (2.0 * hv * e4u + 0.5 * np.einsum("ni,ni->n", xi_i, grad_h) * e4u)))

    xdotnu = np.einsum("ni,ni->n", xi_b, nu)
    xdotgu = np.einsum("ni,ni->n", xi_b, gu_b)
    t_a = 0.5 * hv_b * e4u_b * xdotnu
    t_b = -np.einsum("nij,ni,n,nj->n", ginv_b, glap_b, xdotgu, nu)
    t_c = np.einsum("nij,n,ni,nj->n", ginv_b, lap_b, gu_b, nu)
    t_d = np.einsum("nij,n,nm,nim,nj->n", ginv_b, lap_b, xi_b, hu_b, nu)
    t_e = -0.5 * lap_b**2 * xdotnu
    I1 = float(sum(np.sum(w_b * t) for t in (t_a, t_b, t_c, t_d, t_e)))

    if flat:
        I2_metric = I3 = I4 = remainder = 0.0
    else:
        hu_i = u.hess(xi_i)
        hu_flat = hu_i.reshape(-1, 16)
        ginv_i, A_i, A_EA_i, Eginv_i = np.split(
            poly_jet(_interior_polys(inv), xi_i, 0)[0], [16, 20, 24], axis=1
        )
        lap_i = np.sum(A_i * gu_i, axis=1) + np.sum(ginv_i * hu_flat, axis=1)
        metric = np.sum(A_EA_i * gu_i, axis=1) + np.sum(Eginv_i * hu_flat, axis=1)
        I2_metric = float(np.sum(w_i * lap_i * metric))
        ric1 = ricci_of(metric_taylor.jet.R1).to_float()
        ric_l = ric1.transpose(2, 0, 1).reshape(4, 16)
        Mg_b = _contract_ricci(ric_l, xi_b, gu_b)
        Mg_i = _contract_ricci(ric_l, xi_i, gu_i)
        I3 = 2.0 * float(np.sum(w_b * np.sum(nu * Mg_b, axis=1) * xdotgu))
        hu_xi = (hu_i @ xi_i[:, :, None])[:, :, 0]
        I4 = -2.0 * float(np.sum(w_i * np.sum(Mg_i * (gu_i + hu_xi), axis=1)))
        eps3 = metric_taylor.comps[..., DEGREE == 3].abs_max()
        r_i = np.linalg.norm(xi_i, axis=1)
        du, d2u = np.linalg.norm(gu_i, axis=1), np.linalg.norm(hu_flat, axis=1)
        remainder = float(np.sum(w_i * (eps3 * r_i**2 * du**2 + eps3 * r_i**4 * d2u)))
    I2 = I2_metric - 2.0 * float(np.sum(w_i * bv * np.einsum("ni,ni->n", xi_i, gu_i)))

    err = 0.0
    if _estimate:
        coarse = BallDomain(
            ball.R, max(ball.n_r // 2, 8), max(ball.n_u // 2, 8), max(ball.n_phi // 2, 8)
        )
        rep_c = pohozaev_balance(u, h, b, coarse, metric_taylor=metric_taylor, _estimate=False)
        fine = PohozaevReport(I0, I1, I2, I3, I4, 0.0)
        err = abs(fine.residual - rep_c.residual)

    return PohozaevReport(I0, I1, I2, I3, I4, err, remainder)


def _interior_polys(inv):
    """g^{ij}, A, A + EA and E g^{-1} as one (40, 35) exact array, where
    A_j = d_i g^{ij} and E = xi^m d_m multiplies each degree-k part by k."""
    A = poly_diff(inv).einsum("abak->bk")
    flat_inv = inv.reshape(16, -1)
    return concatenate([flat_inv, A, A * (1 + DEGREE), flat_inv * DEGREE])


def _contract_ricci(ric_l, xi, gu):
    """Ric_ij,l xi^l d_j u at each point: one (n, 4) @ (4, 16) matmul for
    the matrices, then one batched matrix-vector product."""
    M = (xi @ ric_l).reshape(-1, 4, 4)
    return (M @ gu[:, :, None])[:, :, 0]
