"""Curvature tensors, the Paneitz operator, and two checks of criterion 6.

The checks are the conformal covariance of the Paneitz operator,
P_{e^{2u} g} = e^{-4u} P_g (``check_conformal_covariance``), and the
conformally invariant total of Q + |W|^2/8 over a closed model
(``gauss_bonnet_check``), 8 pi^2 on the round S^4.  The total drops Q's
term -(1/12) Delta_g R, whose integral over a closed model is 0 by the
divergence theorem, so it reads the curvature kernel at the nodes alone.

Conventions (fixed once, used everywhere):

* Riemann:  R_abcd = (1/2)(d_b d_c g_ad + d_a d_d g_bc - d_b d_d g_ac - d_a d_c g_bd)
                   + Gamma^e_bc Gamma_{e,ad} - Gamma^e_bd Gamma_{e,ac},
  with Gamma_{e,ad} = g_ef Gamma^f_ad, the lowered form of
  R^a_{bcd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb} + Gamma^a_{ce} Gamma^e_{db}
  - Gamma^a_{de} Gamma^e_{cb}; Ricci is the (a,c) trace.  The round sphere
  then has R = +12.
* All tensors are stored with lowered indices; raising is explicit.
* Weyl (dimension 4, lowered):
      W_abcd = R_abcd - (1/2)(g_ac Ric_bd - g_ad Ric_bc
                              + g_bd Ric_ac - g_bc Ric_ad)
             + (R/6)(g_ac g_bd - g_ad g_bc),
  the normalization pinned by W = 0 on constant-curvature metrics.

A metric here is anything with ``domain``, ``is_flat`` and
``jet(pts, order)`` for order <= 2 in the ``fields.MetricField.jet``
layout: a conformally flat ``fields.MetricField`` or an exact
``cnc.PolynomialMetric``.  Scalar fields are ``fields.ScalarField``s,
read through the same ``jet(pts, order)``; the flat Paneitz path reads
Delta^2 u from one order-4 jet.  Outer derivatives of computed
quantities (Delta_g R, Paneitz) come from ``fields.fd_jet``, in that layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import DIM, MetricField, fd_jet, require_positive_definite


def _like(x, values):
    """``values`` for a batch (n, 4); its only entry as a float for one point."""
    return float(values[0]) if np.ndim(x) == 1 else values


def _bracket(dg):
    """brack[n, d, b, c] = d_b g_dc + d_c g_db - d_d g_bc from dg[n, a, b, c] =
    d_c g_ab; further trailing axes (d2g) ride along."""
    return np.swapaxes(dg, 2, 3) + dg - np.moveaxis(dg, 3, 1)


def _christoffel(ginv, brack):
    """Gamma^a_{bc} = (1/2) g^{ad} brack_dbc."""
    return 0.5 * np.einsum("nad,ndbc->nabc", ginv, brack)


def _laplacian(g, pts, jet):
    """g^{ij}(d_ij f - Gamma^k_ij d_k f) at ``pts`` from ``jet(indices)``, f's
    order-2 jet there, exact in the partials listed: those of order <= 1 and
    each pair (i, j) with g^{ij} or g^{ji} nonzero at some point."""
    g0, dg = g.jet(pts, 1)
    ginv = np.linalg.inv(g0)
    gam = _christoffel(ginv, _bracket(dg))
    seen = (ginv != 0).any(axis=0)
    pairs = np.argwhere(np.triu(seen | seen.T)).tolist()
    _, grad, hess = jet([(), *((i,) for i in range(DIM)), *map(tuple, pairs)])
    return np.einsum("nij,nij->n", ginv, hess) - np.einsum(
        "nij,nkij,nk->n", ginv, gam, grad
    )


@dataclass
class RiemannAtPoint:
    """Lowered Riemann tensor with the metric and its inverse at one point, or
    at each of n points along a leading axis."""

    components: np.ndarray  # R_abcd
    g: np.ndarray
    g_inv: np.ndarray

    @cached_property
    def ricci(self):
        return np.einsum("...ac,...abcd->...bd", self.g_inv, self.components)

    @property
    def scalar(self):
        return np.einsum("...bd,...bd->...", self.g_inv, self.ricci)

    @property
    def ricci_norm_sq(self):
        ric = self.ricci
        gi = self.g_inv
        return np.einsum("...ab,...cd,...ac,...bd->...", gi, gi, ric, ric)


def riemann_of_metric(g, x) -> RiemannAtPoint:
    """Lowered Riemann tensor of ``g`` at ``x``, one point (4,) or many (n, 4).

    The one curvature kernel: every point must lie inside the chart and
    carry a positive-definite metric.
    """
    x = np.asarray(x, float)
    pts = np.atleast_2d(x)
    g.domain.require_interior(pts)
    g0, dg, d2g = g.jet(pts, 2)
    require_positive_definite(g0, pts)
    ginv = np.linalg.inv(g0)
    brack = _bracket(dg)  # 2 Gamma_{e,ad}
    gam = _christoffel(ginv, brack)  # Gamma^e_bc
    # gg[n, a, d, b, c] = Gamma^e_bc Gamma_{e,ad}
    rows = (len(pts), DIM, DIM * DIM)
    gg = np.matmul(0.5 * brack.reshape(rows).transpose(0, 2, 1), gam.reshape(rows))
    # R_abcd = h_abcd - h_abdc with h_abcd = (1/2)(d_b d_c g_ad + d_a d_d g_bc)
    # + Gamma^e_bc Gamma_{e,ad}; d2g[n, a, b, c, d] = d_c d_d g_ab
    h = 0.5 * (np.einsum("nadbc->nabcd", d2g) + np.einsum("nbcad->nabcd", d2g))
    h += np.einsum("nadbc->nabcd", gg.reshape(h.shape))
    r = h - np.einsum("nabcd->nabdc", h)
    one = 0 if x.ndim == 1 else slice(None)
    return RiemannAtPoint(components=r[one], g=g0[one], g_inv=ginv[one])


def weyl_tensor(riem: RiemannAtPoint) -> np.ndarray:
    """Lowered Weyl tensor W_abcd (trace-free part of Riemann, n = 4)."""
    g = riem.g
    r = riem.components
    ric = riem.ricci
    scal = np.asarray(riem.scalar)[..., None, None, None, None]
    kulk = np.einsum("...ac,...bd->...abcd", g, ric) - np.einsum("...ad,...bc->...abcd", g, ric)
    kulk += np.einsum("...bd,...ac->...abcd", g, ric) - np.einsum("...bc,...ad->...abcd", g, ric)
    gg = np.einsum("...ac,...bd->...abcd", g, g) - np.einsum("...ad,...bc->...abcd", g, g)
    return r - 0.5 * kulk + (scal / 6.0) * gg


def weyl_norm_sq(w, gi):
    """|W|^2 = W_abcd W^abcd with indices raised by the inverse metric
    ``gi``, such as ``RiemannAtPoint.g_inv``; one per point."""
    w_up = np.einsum(
        "...ae,...bf,...cg,...dh,...efgh->...abcd", gi, gi, gi, gi, w, optimize=True
    )
    return np.einsum("...abcd,...abcd->...", w, w_up)


def laplace_beltrami(g, u, x):
    """Delta_g u(x) = g^{ij}(d_ij u - Gamma^k_ij d_k u) at one point or (n, 4)."""
    pts = np.atleast_2d(np.asarray(x, float))
    g.domain.require_interior(pts)
    return _like(x, _laplacian(g, pts, lambda reach: u.jet(pts, 2)))


def _default_step(pts):
    """The FD step max(1e-2, 1e-2 |x|) at each point of ``pts`` (n, 4).

    It ignores the scale of the field differentiated.  On the round S^4,
    the bubble of scale eps solves P_g u + 6 = 6 e^{4u} exactly; at this
    step its relative residual is 7.0e-7 at eps = 1/2 and 1.03 at eps = 1e-2.
    """
    # the norm of each point alone: a row-wise norm can differ in the last bit
    return np.array([max(1e-2, 1e-2 * float(np.linalg.norm(p))) for p in pts])


def _fd_laplacian(g, func, pts, step):
    """Delta_g of the scalar ``func`` at ``pts``: the metric from exact jets,
    the derivatives of ``func`` by finite differences of only the partials
    g^{ij} reaches: 17 stencil points per point (the centre and four on each
    axis) on a ``MetricField``, 16 more per coupled pair (i, j), 113 at most."""
    return _laplacian(g, pts, lambda reach: fd_jet(func, pts, 2, step, reach))


def q_curvature(g, x, step=None):
    """Q_g(x) = -(1/12)(Delta_g R - R^2 + 3 |Ric|^2) at one point or (n, 4).

    R and Ric come from exact metric jets; Delta_g R uses order-4 centered
    differences over exact scalar-curvature evaluations, with the default
    step max(1e-2, 1e-2 |x|) at each point, on the partials g^{ij} reaches
    (``_fd_laplacian``): 17 kernel calls per point on a ``MetricField``, not 113.
    The default step ignores the scale of g (``_default_step``).  A flat
    metric takes the same path: R, Ric and every stencil value are exact
    zeros, and Q, summed as R^2 - Delta_g R - 3 |Ric|^2, is +0.0.
    """
    pts = np.atleast_2d(np.asarray(x, float))
    riem = riemann_of_metric(g, pts)
    if step is None:
        step = _default_step(pts)
    lap_r = _fd_laplacian(g, lambda p: riemann_of_metric(g, p).scalar, pts, step)
    return _like(x, (riem.scalar**2 - lap_r - 3.0 * riem.ricci_norm_sq) / 12.0)


def paneitz_apply(g, u, x, step=None):
    """P_g u(x) = Delta_g^2 u - div_g((2/3 R g - 2 Ric) grad u) at one point
    or (n, 4).

    The second term is the codifferential pairing delta(T du); the sign is
    pinned by conformal covariance (on the round S^4 it gives the known
    P = Delta^2 - 2 Delta).  Flat metrics take an exact path.  Curved metrics
    evaluate inner quantities from exact jets and apply the outer
    derivatives with order-4 centered differences, with the default step
    max(1e-2, 1e-2 |x|) at each point, which ignores the scale of u
    (``_default_step``); Delta_g (Delta_g u) differentiates the partials
    g^{ij} reaches, 17 points per point on a ``MetricField``, not 113, and
    the divergence takes the four first partials, 16 points per point.
    """
    pts = np.atleast_2d(np.asarray(x, float))
    g.domain.require_interior(pts)
    if g.is_flat:
        return _like(x, np.einsum("niijj->n", u.jet(pts, 4)[4]))
    if step is None:
        step = _default_step(pts)
    bilap = _fd_laplacian(g, lambda p: laplace_beltrami(g, u, p), pts, step)

    # divergence term: V^i = sqrt(g) T^{ij} d_j u with
    # T^{ij} = (2/3) R g^{ij} - 2 Ric^{ij}; div = (1/sqrt(g)) d_i V^i by FD.
    def v_field(p):
        riem = riemann_of_metric(g, p)
        gi = riem.g_inv
        t_up = (2.0 / 3.0) * riem.scalar[:, None, None] * gi - 2.0 * np.einsum(
            "nia,njb,nab->nij", gi, gi, riem.ricci
        )
        sgp = np.sqrt(np.linalg.det(riem.g))
        return sgp[:, None] * np.einsum("nij,nj->ni", t_up, u.jet(p, 1)[1])

    dv = fd_jet(v_field, pts, 1, step, [(i,) for i in range(DIM)])[1]
    div = sum(dv[:, i, i] for i in range(DIM)) / np.sqrt(np.linalg.det(g.jet(pts, 0)[0]))
    return _like(x, bilap - div)


def conformal_transform(g: MetricField, u) -> MetricField:
    """The conformal metric e^{2u} g of a conformally flat ``g``."""
    import sympy as sp

    if g.domain != u.domain:
        raise ValueError("domains must match")
    return MetricField(g.domain, sp.exp(2 * u.expr) * g.factor.expr)


def check_conformal_covariance(g, u, f, pts, step=None):
    """Max over ``pts`` of |P_gt f - e^{-4u} P_g f| for gt = e^{2u} g."""
    gt = conformal_transform(g, u)
    pts = np.atleast_2d(np.asarray(pts, float))
    lhs = paneitz_apply(gt, f, pts, step=step)
    rhs = np.exp(-4.0 * u.jet(pts, 0)[0]) * paneitz_apply(g, f, pts, step=step)
    return float(np.max(np.abs(lhs - rhs)))


def gauss_bonnet_check(model):
    """Integral of (Q + |W|^2 / 8) dV over a closed model.

    ``model`` supplies ``metric``, ``quad_points`` (chart nodes) and
    ``quad_weights`` (including the Riemannian volume factor).  Raises if
    the weights do not reproduce the model volume within 1%.  The integrand
    is (R^2 - 3 |Ric|^2) / 12 + |W|^2 / 8: Q without -(1/12) Delta_g R,
    whose integral over a closed model is 0, so its finite differences
    would add only their error.  R, Ric and W come from one kernel call at
    the nodes.
    """
    g = model.metric
    pts = model.quad_points
    w = model.quad_weights
    vol = float(np.sum(w))
    if abs(vol - model.volume) > 0.01 * model.volume:
        raise ValueError(
            f"quadrature volume {vol:.6g} vs expected {model.volume:.6g}"
        )
    riem = riemann_of_metric(g, pts)
    q = (riem.scalar**2 - 3.0 * riem.ricci_norm_sq) / 12.0
    wsq = weyl_norm_sq(weyl_tensor(riem), riem.g_inv)
    return float(w @ (q + wsq / 8.0))
