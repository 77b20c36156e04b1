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

The interior nodes evaluate the values of the 40 exact polynomials A,
g^{ij}, A + E A and E g^{-1}; the boundary nodes, whose flux needs
d_m(lap u), evaluate the first 20, [A | g^{ij}], to order 1.  I3 and I4
contract Ric_ij,l(0), once per metric and ball, with the 64 metric-free
moments int w xi^l v_i d_j u: v = grad u + hess u xi in the interior,
v = nu and w times xi.grad u on the sphere.

One call balances a sweep of metrics on one ball in one pass over it.
What does not depend on the metric is computed once per ball and shared
by the whole sweep: u's jet (order 3 on the boundary; order 2 in the
interior, or 1 when every metric is flat), h's (order 1 in the
interior), b, e^{4u}, I0, the b part of I2 and the Ricci moments.
Each table is stacked over the metrics, built once per call.

Both rules are walked as shells x directions (``BallDomain.blocks``):
the interior as runs of directions over every shell, JET_BLOCK / k
nodes for k curved metrics (all JET_BLOCK when flat), so a block's 40 k
table columns fill one JET_BLOCK x 40 workspace; the sphere, the one
shell r = R, as pieces of ``BOUNDARY_BLOCK`` directions.  Nodes and
weights are formed per block from the rule's factors, and u, h and b are
read through ``polar_jet(r, dirs, order)``, whose parts broadcast
against the block: a radial value stays one per shell.  A degree-k
monomial at r n is r^k times its value at n, so an interior block
applies each degree's table rows once per direction and gets every
shell's values from one product with [1, r, r^2, r^3]; a sphere block
evaluates its table at the points.  The block sums are added in block
order, so the output depends on the inputs alone.

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
    _GRADED, DEGREE, JET_BLOCK, _apply_jet_table, _jet_table, concatenate,
    inverse_metric_taylor, poly_diff, ricci_of,
)
from .fields import DerivativeOrderError, polar_points
from .quadrature import gauss_legendre, s3_nodes, BALL4_VOL, S3_AREA

# nodes per boundary block: at 512 its order-3 jet of u, (n, 4, 4, 4), takes
# 0.26 MB and a two-metric (n, 200) [A | g^{ij}] table 0.82 MB
BOUNDARY_BLOCK = 512
# the table rows of each monomial degree 0 to 3
_DEGREE_ROWS = [[0]] + [rows for rows, _, _ in _GRADED]


@dataclass
class BallDomain:
    """Origin-centered ball with polar interior and boundary rules, each a
    product of shells and directions.

    The interior rule's shells are the Gauss-Legendre ``radii`` on [0, R]
    with weights wr r^3 (``shell_w``); the boundary rule is the one shell
    r = R with weight R^3.  Both take the unit S^3 nodes ``s3_pts`` with
    weights ``s3_w`` as directions, and ``blocks`` walks either.  The
    whole-rule weights ``int_w`` and ``bdy_w`` are formed only when read."""

    R: float
    n_r: int = 48
    n_u: int = 24
    n_phi: int = 24

    def __post_init__(self):
        self.radii, wr = gauss_legendre(self.n_r, 0.0, self.R)
        self.shell_w = wr * self.radii**3
        self.s3_pts, self.s3_w = s3_nodes(self.n_u, self.n_phi)
        vol = BALL4_VOL * self.R**4
        area = S3_AREA * self.R**3
        if abs(self.shell_w.sum() * self.s3_w.sum() - vol) > 1e-8 * vol:
            raise RuntimeError("interior weights do not sum to the ball volume")
        if abs(self.R**3 * self.s3_w.sum() - area) > 1e-8 * area:
            raise RuntimeError("boundary weights do not sum to the sphere area")

    @property
    def int_w(self):
        return (self.shell_w[:, None] * self.s3_w[None, :]).reshape(-1)

    @property
    def bdy_w(self):
        return self.R**3 * self.s3_w

    def blocks(self, size, boundary=False):
        """The interior rule, or with ``boundary`` the sphere's, as blocks of
        s shells times d directions, s d <= ``size``: runs of d = size // s
        directions, each over every shell (or over pieces of ``size``
        shells when there are more); the last run or piece may be short.
        Each block is (r, dirs, w): the radii (s, 1), the unit directions
        (d, 4) and the s d weights of the nodes ``polar_points(r, dirs)``,
        shell-major, each the shell weight times the S^3 weight.  Every node
        of the product rule is in one block."""
        radii, shell_w = (
            (np.array([self.R]), np.array([self.R**3])) if boundary else (self.radii, self.shell_w)
        )
        s = min(len(radii), size)
        d = size // s
        for j in range(0, len(self.s3_pts), d):
            for k in range(0, len(radii), s):
                w = shell_w[k : k + s, None] * self.s3_w[None, j : j + d]
                yield radii[k : k + s, None], self.s3_pts[j : j + d], w.reshape(-1)


class RadialProfileField:
    """Order-3 jet of u(y) = f(|y|) + tilt.y from the closed forms of the
    radial profile f.

    ``profile.radial(r)`` returns ``[f, f', f'', f''']`` at the radii
    ``r`` (e.g. RescaledBubble), or a shorter list for a profile read to a
    lower order.  The jet is formed in polar form, at radii r and unit
    directions n: on a ball block of s shells times d directions
    ``polar_jet`` calls the profile once with the s shell radii and forms
    the products of n once per direction, and ``jet(pts, order)`` is the
    same formulas at r = |pts|, n = pts / r.
    """

    def __init__(self, profile, tilt=None):
        self.profile = profile
        self.tilt = None if tilt is None else np.asarray(tilt, float)

    def jet(self, pts, order):
        """``polar_jet`` at r = |pts|, n = pts / r, one point each."""
        pts = np.atleast_2d(np.asarray(pts, float))
        r = np.linalg.norm(pts, axis=1)
        return self.polar_jet(r, pts / r[:, None], order)

    def polar_jet(self, r, dirs, order):
        """``[val, grad, hess, third]`` up to ``order`` at the points r n,
        parts broadcasting against the radii ``r`` times the leading axes
        of the unit directions ``dirs`` (the untilted value keeps the shape
        of ``r``), from one ``profile.radial(r)``; an ``order`` at or past
        the length of its list raises ``DerivativeOrderError``.  With n the
        direction and q = f'/r:

            d_i u   = f' n_i
            d_im u  = (f'' - q) n_i n_m + q delta_im
            d_iml u = (f''' - 3f''/r + 3f'/r^2) n_i n_m n_l
                    + (f'' - q) (delta_il n_m + delta_im n_l + delta_ml n_i) / r

        and the tilt adds its linear term to the value and gradient.  The
        source display's last coefficient reads (f'' - f'), which fails the
        FD cross-check of ``qcurv pohozaev``; (f'' - f'/r) passes.
        """
        r, n = np.asarray(r, float), np.asarray(dirs, float)
        shape = np.broadcast_shapes(r.shape, n.shape[:-1])
        f = self.profile.radial(r)
        if order >= len(f):
            raise DerivativeOrderError(f"radial profile derivatives up to order {len(f) - 1}")
        val = f[0]
        if self.tilt is not None:
            val = val + r * (n @ self.tilt)
        out = [val]
        if order >= 1:
            f1 = f[1]
            grad = f1[..., None] * n
            out.append(grad if self.tilt is None else grad + self.tilt)
        if order >= 2:
            f2 = f[2]
            q = f1 / r
            nn = n[..., :, None] * n[..., None, :]
            hess = (f2 - q)[..., None, None] * nn
            diag = np.arange(4)
            hess[..., diag, diag] += q[..., None]
            out.append(hess)
        if order >= 3:
            f3 = f[3]
            a = (f3 - 3.0 * f2 / r + 3.0 * f1 / r**2)[..., None, None, None]
            b = ((f2 - q) / r)[..., None, None, None]
            # the delta terms fill one array in the order of their sum, in place
            third = np.zeros(shape + (4, 4, 4))
            for i in range(4):
                third[..., i, i, :] += n  # delta_im n_l
            for i in range(4):
                third[..., i, :, i] += n  # delta_il n_m
            for i in range(4):
                third[..., :, i, i] += n  # delta_ml n_i
            third *= b
            third += a * nn[..., :, :, None] * n[..., None, None, :]
            out.append(third)
        return out


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


def pohozaev_balance(u, h, b, ball: BallDomain, metric_taylors=(None,)):
    """Term-by-term Pohozaev reports, one per entry of ``metric_taylors``.

    ``u``, ``h`` and ``b`` are read through ``polar_jet(r, dirs, order)``,
    which returns ``[val, grad, hess, third]`` up to ``order`` at the
    points r dirs, each part broadcasting against the block of radii
    ``r`` times directions ``dirs``, such as RadialProfileField's; h's
    gradient gives I0's xi.grad(h) term.  An entry None is the flat
    metric; I3 and I4 of any other entry read the Ricci derivatives of its
    curvature jet ``metric_taylor.jet``.  Each ``error_estimate`` is the
    change of its residual on a ball of half the nodes per axis (at least 8).
    """
    curved = [mt for mt in metric_taylors if mt is not None]
    tables, bdy_table, ric = _tables(curved)
    eps3 = [mt.comps[..., DEGREE == 3].abs_max() for mt in curved]
    # every block's table values, on both balls, are written here
    work = np.empty(max(JET_BLOCK * 40 * bool(curved), BOUNDARY_BLOCK * bdy_table.shape[1]))

    def reports(dom):
        I1, T = _boundary_terms(u, h, dom, metric_taylors, bdy_table, work)
        I0, bxgu, tail, I2m, S = _interior_sums(u, h, b, dom, tables, work)
        I3, I4 = ((2.0 * T @ ric).tolist(), (-2.0 * S @ ric).tolist()) if curved else ([], [])
        curved_terms = iter(zip(I2m, I3, I4, eps3))
        out = []
        for mt, i1 in zip(metric_taylors, I1):
            i2, i3, i4, e3 = (0.0,) * 4 if mt is None else next(curved_terms)
            out.append(PohozaevReport(I0, i1, i2 - 2.0 * bxgu, i3, i4, 0.0, e3 * tail))
        return out

    fine = reports(ball)
    coarse = BallDomain(
        ball.R, max(ball.n_r // 2, 8), max(ball.n_u // 2, 8), max(ball.n_phi // 2, 8)
    )
    for f, c in zip(fine, reports(coarse)):
        f.error_estimate = abs(f.residual - c.residual)
    return fine


def _ricci_moments(w, xi, v, gu):
    """The 64 moments sum w xi^l v_i d_j u over a block's nodes, (i, j, l)
    in C order, that Ric_ij,l(0) contracts into I3 or I4."""
    vg = np.einsum("ni,nj->nij", v.reshape(-1, 4), gu.reshape(-1, 4)).reshape(-1, 16)
    return (vg.T @ (w.reshape(-1, 1) * xi.reshape(-1, 4))).reshape(-1)


def _boundary_terms(u, h, ball, metric_taylors, table, work):
    """I1 of each entry of ``metric_taylors``, and I3's Ricci moments when
    one is curved: per sphere block of ``BOUNDARY_BLOCK`` nodes, u's
    order-3 jet and the boundary ``table`` give each node's flux, weighted
    into the block's partial sums, which are added in block order."""
    parts = []
    for r, nu, w in ball.blocks(BOUNDARY_BLOCK, boundary=True):
        r = r[:, 0]  # the one shell, broadcast against the directions
        xi = polar_points(r, nu)
        uv, gu, hu, tu = jet = u.polar_jet(r, nu, 3)
        xdotnu = np.einsum("ni,ni->n", xi, nu)
        xdotgu = np.einsum("ni,ni->n", xi, gu)
        shared = 0.5 * h.polar_jet(r, nu, 0)[0] * np.exp(4.0 * uv) * xdotnu
        gu_hxi = gu + np.einsum("nim,nm->ni", hu, xi)
        curved = zip(*_detone_terms(table, xi, jet, work)) if table.shape[1] else iter(())
        row = []
        for mt in metric_taylors:
            if mt is None:
                lap, glap, gnu = np.trace(hu, axis1=1, axis2=2), np.einsum("naai->ni", tu), nu
            else:
                lap, glap, ginv = next(curved)
                gnu = np.einsum("nij,nj->ni", ginv, nu)
            flux = (
                shared
                - np.einsum("ni,ni->n", glap, gnu) * xdotgu
                + lap * np.einsum("ni,ni->n", gu_hxi, gnu)
                - 0.5 * lap**2 * xdotnu
            )
            row.append(w @ flux)
        if table.shape[1]:
            row.extend(_ricci_moments(w * xdotgu, xi, nu, gu))
        parts.append(row)
    sums = np.sum(parts, axis=0)
    return sums[: len(metric_taylors)].tolist(), sums[len(metric_taylors) :]


def _table_at(tables, r, dirs, work):
    """The interior table, as its rows of each degree ``tables``, at the
    nodes ``polar_points(r, dirs)`` as (s, d, columns) in the front of
    ``work``: each degree k's rows applied once per direction give P_k(n),
    and one (s, 4) @ (4, d columns) product of [1, r, r^2, r^3] with them
    every shell's values.  Each is within 35 ulp of the sum of the
    magnitudes of its terms in ``_apply_jet_table`` at the nodes."""
    mono = np.ones((len(DEGREE), len(dirs)))
    for rows, parents, variables in _GRADED:
        mono[rows] = mono[parents] * dirs.T[variables]
    s, d, c = len(r), len(dirs), tables[0].shape[1]
    P = np.empty((4, d, c))
    for k, (rows, t) in enumerate(zip(_DEGREE_ROWS, tables)):
        np.matmul(mono[rows].T, t, out=P[k])
    powers = np.hstack([np.ones_like(r), r, r * r, r * r * r])
    out = work[: s * d * c].reshape(s, d * c)
    return np.matmul(powers, P.reshape(4, d * c), out=out).reshape(s, d, c)


def _detone_terms(table, xi, jet, work):
    """lap u = A.grad u + g^{ij} d_ij u of each metric in the boundary
    ``table`` at ``xi``, its gradient d_m A.grad u + A.grad d_m u
    + d_m g^{ij} d_ij u + g^{ij} d_ijm u, and g^{ij}, as (k, n), (k, n, 4)
    and (k, n, 4, 4) arrays, from u's order-3 ``jet``; the table is
    evaluated at the points into the workspace ``work``."""
    n, (_, gu, hu, tu) = len(xi), jet
    out = work[: n * table.shape[1]].reshape(n, -1)
    vals = _apply_jet_table(table, [(table.shape[1] // 100, 100)], xi, out)[0]
    vals, parts = vals[..., :20], vals[..., 20:].reshape(n, -1, 20, 4)
    d1 = np.hstack([gu, hu.reshape(n, 16)])
    d2 = np.concatenate([hu, tu.reshape(n, 16, 4)], axis=1)
    lap = np.einsum("nks,ns->kn", vals, d1)
    glap = np.einsum("nksm,ns->knm", parts, d1) + np.einsum("nks,nsm->knm", vals, d2)
    return lap, glap, vals[..., 4:].reshape(n, -1, 4, 4).transpose(1, 0, 2, 3)


def _interior_sums(u, h, b, ball, tables, work):
    """Interior integrals over ``ball``: I0, int b xi.grad u, the remainder
    integral int r^2 |grad u|^2 + r^4 |hess u| (0 when ``tables`` hold no
    curved metric), each curved metric's I2 metric part and I4's Ricci
    moments, from blocks of JET_BLOCK / k nodes, added in block order."""
    k = tables[0].shape[1] // 40
    parts = []
    for r, dirs, w in ball.blocks(JET_BLOCK // max(k, 1)):
        xi = r[..., None] * dirs  # the nodes polar_points(r, dirs) as (s, d, 4)
        jet = u.polar_jet(r, dirs, 2 if k else 1)
        gu = jet[1]
        hv, gh = h.polar_jet(r, dirs, 1)
        f0 = (2.0 * hv + 0.5 * np.einsum("...i,...i->...", xi, gh)) * np.exp(4.0 * jet[0])
        bxgu = b.polar_jet(r, dirs, 0)[0] * np.einsum("...i,...i->...", xi, gu)
        row = [w @ f0.reshape(-1), w @ bxgu.reshape(-1)]
        if k:
            hu = jet[2]
            hu_flat = hu.reshape(xi.shape[:2] + (16,))
            polys = _table_at(tables, r, dirs, work).reshape(xi.shape[:2] + (k, 2, 20))
            lap, metric = np.einsum("sdkaj,sdj->aksd", polys[..., :4], gu) + np.einsum(
                "sdkaj,sdj->aksd", polys[..., 4:], hu_flat
            )
            du2 = np.einsum("...i,...i->...", gu, gu)
            d2u = np.sqrt(np.einsum("...i,...i->...", hu_flat, hu_flat))
            r2 = r * r
            row.append(w @ (r2 * du2 + r2 * r2 * d2u).reshape(-1))
            row.extend((lap * metric).reshape(k, -1) @ w)
            v = gu + np.einsum("...im,...m->...i", hu, xi)
            row.extend(_ricci_moments(w, xi, v, gu))
        parts.append(row)
    sums = np.sum(parts, axis=0)
    I0, bxgu, tail, I2m = sums[0], sums[1], sums[2] if k else 0.0, sums[3 : 3 + k].tolist()
    return float(I0), float(bxgu), float(tail), I2m, sums[3 + k :]


def _tables(curved):
    """The interior, boundary and Ricci tables of the metrics ``curved``,
    each stacked over them.  Per metric the interior one holds the values
    of A, g^{ij}, A + EA and E g^{-1}, 40 exact polynomials where
    A_j = d_i g^{ij} and E = xi^m d_m multiplies each degree-k part by k,
    each half pairing with (grad u, hess u); it is returned as its rows of
    each degree 0 to 3.  The boundary one holds the first 20, [A | g^{ij}],
    to order 1 (100 columns); the Ricci one Ric_ij,l(0) as a (64,) column,
    (i, j, l) in C order."""
    parts = [(np.empty((len(DEGREE), 0)), np.empty((len(DEGREE), 0)), np.empty((64, 0)))]
    for mt in curved:
        inv = inverse_metric_taylor(mt).comps
        A, flat_inv = poly_diff(inv).einsum("abak->bk"), inv.reshape(16, -1)
        polys = concatenate([A, flat_inv, A * (1 + DEGREE), flat_inv * DEGREE])
        ric = ricci_of(mt.jet.R1).to_float().reshape(64, 1)
        parts.append((_jet_table(polys, 0)[0], _jet_table(polys[:20], 1)[0], ric))
    table, bdy_table, ric = (np.hstack(col) for col in zip(*parts))
    return [table[rows] for rows in _DEGREE_ROWS], bdy_table, ric
