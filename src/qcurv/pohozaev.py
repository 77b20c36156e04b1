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

The interior evaluates the values of the 40 exact polynomials A,
g^{ij}, A + E A and E g^{-1}; the boundary nodes, whose flux needs
d_m(lap u), evaluate the first 20, [A | g^{ij}], to order 1.  I3 and I4
contract Ric_ij,l(0), once per metric and ball, with the 64 metric-free
moments int w xi^l v_i d_j u: v = grad u + hess u xi in the interior,
v = nu and w times xi.grad u on the sphere.

One call balances the flat metric, or a sweep of curved metrics on one
ball in one pass over it.  What does not depend on the metric is
computed once per ball and shared by the whole sweep: u's jet (order 3
on the boundary; order 2 in the interior, or 1 when flat), h's (order 1
in the interior), b, e^{4u}, I0, the b part of I2 and the Ricci moments.
Each table is stacked over the metrics, built once per call.

Both rules are walked as runs of directions (``BallDomain.runs``): the
interior as runs of JET_BLOCK // (k n_r) directions (at least one) over
all n_r shells, for k curved metrics (k = 1 when flat); the sphere, the
one shell r = R, as runs of ``BOUNDARY_BLOCK`` directions.  u, h and b
are read through ``polar_terms(r, dirs, order)``: each part a sum over b
of radial factors R_b (one per shell) times angular factors A_b (one per
direction).  A sphere block expands them into u's Cartesian jet and
evaluates its table at the points.  The interior separates the
variables.  It expands only the values of u, h and b, and xi.grad f is
r sum_b R_b (n.A_b), so I0's and the b term's integrands stay (s, 1)
where every term they read has a direction-free angular factor.  A
degree-k monomial at r n is r^k times its value at n, so each degree's
table rows are applied once per direction, P_k(n), and contracted there
with u's angular gradient and Hessian factors; one (s, 4B) @ (4B, d 2k)
product with the r^k R_b gives lap u and every metric's I2 part at every
node.  |grad u|^2 and |hess u|^2 come from per-direction Gram products,
and I4's Ricci moments are a radial sum between angular factors.  Every
interior block sum is shell_w @ F @ s3_w, and the block sums are added
in block order, so the output depends on the inputs alone.

The curved identity leaves out the degree >= 4 tail of the metric
expansion.  ``unmodeled_remainder`` bounds that tail's share, sized from
the cubic Taylor coefficients: eps3 int_O (r^2 |grad u|^2 + r^4 |hess u|),
eps3 the largest of them.  It is a bound on the omitted terms, not an
estimate of the residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import JET_BLOCK
from .cnc import (
    DEGREE, _apply_jet_table, _jet_table, _monomials, concatenate, inverse_metric_taylor,
    poly_diff, ricci_of,
)
from .fields import DIM, DerivativeOrderError, _expand, polar_jet, polar_points
from .quadrature import gauss_legendre, s3_nodes, BALL4_VOL, S3_AREA

# nodes per boundary block: at 512 its order-3 jet of u, (n, 4, 4, 4), takes
# 0.26 MB and a two-metric (n, 200) [A | g^{ij}] table 0.82 MB
BOUNDARY_BLOCK = 512
# the table rows of each monomial degree 0 to 3
_DEGREE_ROWS = [np.flatnonzero(DEGREE == k) for k in range(4)]


@dataclass
class BallDomain:
    """Origin-centered ball with polar interior and boundary rules, each a
    product of shells and directions.

    The interior rule's shells are the ``n_r`` Gauss-Legendre ``radii`` on
    [0, R] with weights wr r^3 (``shell_w``); the boundary rule is the one
    shell r = R with weight R^3.  Both take ``s3_nodes(n_u, n_phi)`` as
    directions ``s3_pts`` with weights ``s3_w``, which ``runs`` walks.  The
    whole-rule weights ``int_w`` and ``bdy_w`` are formed only when read."""

    R: float
    n_r: int
    n_u: int
    n_phi: int

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

    def runs(self, d):
        """Runs of ``d`` unit directions (d, 4) and their S^3 weights, the last
        possibly short.  A run with every shell, or with the one shell r = R,
        is a block of the interior rule, or of the sphere's."""
        for j in range(0, len(self.s3_pts), d):
            yield self.s3_pts[j : j + d], self.s3_w[j : j + d]


class RadialProfileField:
    """Order-3 jet of u(y) = f(|y|) + tilt.y from the closed forms of the
    radial profile f.

    ``profile.radial(r)`` returns ``[f, f', f'', f''']`` at the radii
    ``r`` (e.g. RescaledBubble), or a shorter list for a profile read to a
    lower order.  ``polar_terms`` gives each part as radial x angular
    terms, from one call of the profile with the radii and the products of
    each direction n, and ``jet(pts, order)`` expands them at r = |pts|,
    n = pts / r.  With q = f'/r and t the tilt:

        u       = [f, r] x [1, n.t]
        d_i u   = [f', 1] x [n_i, t_i]
        d_im u  = [f'' - q, q] x [n_i n_m, delta_im]
        d_iml u = [f''' - 3f''/r + 3f'/r^2, (f'' - q) / r]
                x [n_i n_m n_l, delta_im n_l + delta_il n_m + delta_ml n_i]

    (no t terms without a tilt).  The source display's last coefficient
    reads (f'' - f'), which fails the FD cross-check of ``qcurv
    pohozaev``; (f'' - f'/r) passes.  At r = 0, q is its limit f''(0): the
    gradient is the tilt and the Hessian f''(0) delta, and the third
    derivative is refused.
    """

    def __init__(self, profile, tilt=None):
        self.profile = profile
        self.tilt = None if tilt is None else np.asarray(tilt, float)

    def jet(self, pts, order):
        """``polar_jet`` at r = |pts|, n = pts / r, one point each."""
        pts = np.atleast_2d(np.asarray(pts, float))
        r = np.linalg.norm(pts, axis=1)
        n = np.divide(pts, r[:, None], out=np.zeros_like(pts), where=r[:, None] > 0.0)
        return polar_jet(self, r, n, order)

    def polar_terms(self, r, dirs, order):
        """The terms up to ``order`` at the points r dirs, from one
        ``profile.radial(r)``; n_i n_m n_l is the pair (n_i n_m, n_l): its radial
        factor multiplies n_i n_m first, as the Cartesian third derivative has,
        and the terms hold no (d, 4, 4, 4) array beside a sphere block's jet (as
        one array, n(x)n(x)n raised the traced peak of the default flat balance
        from 1.99 to 2.26 MB, and of a two-metric sweep from 2.33 to 2.59 MB)."""
        r, n = np.asarray(r, float), np.asarray(dirs, float)
        f, t = self.profile.radial(r), self.tilt
        if order >= len(f):
            raise DerivativeOrderError(f"radial profile derivatives up to order {len(f) - 1}")
        if order >= 3 and np.any(r == 0.0):
            raise DerivativeOrderError("no third derivative of a radial profile at the origin")
        if t is None:
            terms = [(f[0][..., None], [np.ones(1)])]
        else:
            terms = [(np.stack([f[0], r], -1), [np.ones(1), n @ t])]
        if order >= 1:
            grad = f[1][..., None] if t is None else np.stack([f[1], np.ones_like(r)], -1)
            terms.append((grad, [n] if t is None else [n, t]))
        if order >= 2:
            q = np.where(r > 0.0, f[1] / np.where(r > 0.0, r, 1.0), f[2])
            nn = n[..., :, None] * n[..., None, :]
            terms.append((np.stack([f[2] - q, q], -1), [nn, np.eye(DIM)]))
        if order >= 3:
            a = f[3] - 3.0 * f[2] / r + 3.0 * f[1] / r**2
            # the delta terms fill one array in the order of their sum, in place
            sym = np.zeros(n.shape[:-1] + (DIM,) * 3)
            for i in range(DIM):
                sym[..., i, i, :] += n  # delta_im n_l
                sym[..., i, :, i] += n  # delta_il n_m
                sym[..., :, i, i] += n  # delta_ml n_i
            nnn = (nn[..., None], n[..., None, None, :])
            terms.append((np.stack([a, (f[2] - q) / r], -1), [nnn, sym]))
        return terms


@dataclass
class PohozaevReport:
    I0: float
    I1: float
    I2: float
    I3: float
    I4: float
    radial_error_estimate: float
    angular_error_estimate: float
    unmodeled_remainder: float = 0.0

    @property
    def residual(self):
        return self.I0 - (self.I1 + self.I2 + self.I3 + self.I4)


def pohozaev_balance(u, h, b, ball: BallDomain, metric_taylors=()):
    """Term-by-term Pohozaev reports: one for the flat metric when
    ``metric_taylors`` is empty, else one per metric of the sweep.

    ``u``, ``h`` and ``b`` are read through ``polar_terms(r, dirs,
    order)``, which gives each part up to ``order`` at the points r dirs as
    radial factors (one per radius) times angular factors (one per
    direction), such as RadialProfileField's and ConstantField's; h's
    gradient gives I0's xi.grad(h) term.  The flat I2 is the b term alone
    and I3 and I4 are exact zeros; a curved metric's I3 and I4 read the
    Ricci derivatives of its curvature jet ``metric_taylor.jet``.
    ``radial_error_estimate`` is the change of the residual when the
    radial rule alone is halved, to n_r // 2 shells (at least 2, the
    fewest whose weights integrate r^3), and ``angular_error_estimate``
    when the S^3 rule alone is, to (n_u // 2, n_phi // 2), each at least
    1.  A rule at its floor halves to itself, and its estimate is 0.  The
    radially halved ball has the same sphere, whose terms it shares.
    """
    tables, bdy_table, ric = _tables(metric_taylors)
    eps3 = [mt.comps[..., DEGREE == 3].abs_max() for mt in metric_taylors]

    def reports(dom, sphere):
        I1, T = sphere
        I0, bxgu, tail, I2m, S = _interior_sums(u, h, b, dom, tables)
        # the flat I2 is 0.0 - 2 b xi.grad u: +0.0 where b = 0
        terms = [(0.0,) * 4]
        if metric_taylors:
            terms = zip(I2m, (2.0 * T @ ric).tolist(), (-2.0 * S @ ric).tolist(), eps3)
        return [
            PohozaevReport(I0, i1, i2 - 2.0 * bxgu, i3, i4, 0.0, 0.0, e3 * tail)
            for i1, (i2, i3, i4, e3) in zip(I1, terms)
        ]

    sphere = _boundary_terms(u, h, ball, bdy_table)
    fine = reports(ball, sphere)
    radial = reports(BallDomain(ball.R, max(ball.n_r // 2, 2), ball.n_u, ball.n_phi), sphere)
    half = BallDomain(ball.R, ball.n_r, max(ball.n_u // 2, 1), max(ball.n_phi // 2, 1))
    angular = reports(half, _boundary_terms(u, h, half, bdy_table))
    for f, r, a in zip(fine, radial, angular):
        f.radial_error_estimate = abs(f.residual - r.residual)
        f.angular_error_estimate = abs(f.residual - a.residual)
    return fine


def _boundary_terms(u, h, ball, table):
    """I1 of each metric in the boundary ``table``, or of the flat metric
    when it has no columns, and I3's Ricci moments when it has: per sphere
    block of ``BOUNDARY_BLOCK`` directions, u's order-3 jet and the table
    give each node's flux, weighted into the block's partial sums, which
    are added in block order."""
    r, k, parts = np.array([ball.R]), table.shape[1] // 100, []
    for nu, wd in ball.runs(BOUNDARY_BLOCK):
        w, xi = ball.R**3 * wd, polar_points(r, nu)
        uv, gu, hu, tu = jet = polar_jet(u, r, nu, 3)
        xdotnu, xdotgu = np.einsum("ni,ni->n", xi, nu), np.einsum("ni,ni->n", xi, gu)
        shared = 0.5 * polar_jet(h, r, nu, 0)[0] * np.exp(4.0 * uv) * xdotnu
        gu_hxi = gu + np.einsum("nim,nm->ni", hu, xi)
        if k:  # (lap u, grad lap u, g^{ij} nu_j) of each metric, g nu formed per flux
            metrics = ((lap, glap, np.einsum("nij,nj->ni", ginv, nu))
                       for lap, glap, ginv in zip(*_detone_terms(table, xi, jet)))
        else:
            metrics = [(np.trace(hu, axis1=1, axis2=2), np.einsum("naai->ni", tu), nu)]
        row = [
            w @ (shared - np.einsum("ni,ni->n", glap, gnu) * xdotgu
                 + lap * np.einsum("ni,ni->n", gu_hxi, gnu) - 0.5 * lap**2 * xdotnu)
            for lap, glap, gnu in metrics
        ]
        if k:
            # I3's moments sum w (xi.grad u) xi^l nu_i d_j u, (i, j, l) in C order
            vg = np.einsum("ni,nj->nij", nu, gu).reshape(-1, 16)
            row.extend((vg.T @ ((w * xdotgu)[:, None] * xi)).reshape(-1))
        parts.append(row)
    sums = np.sum(parts, axis=0)
    return sums[: max(k, 1)].tolist(), sums[max(k, 1) :]


def _detone_terms(table, xi, jet):
    """lap u = A.grad u + g^{ij} d_ij u of each metric in the boundary
    ``table`` at ``xi``, its gradient d_m A.grad u + A.grad d_m u
    + d_m g^{ij} d_ij u + g^{ij} d_ijm u, and g^{ij}, as (k, n), (k, n, 4)
    and (k, n, 4, 4) arrays, from u's order-3 ``jet``; the table is
    evaluated at the points in one ``_apply_jet_table`` product."""
    n, (_, gu, hu, tu) = len(xi), jet
    vals = _apply_jet_table(table, [(table.shape[1] // 100, 100)], xi)[0]
    vals, parts = vals[..., :20], vals[..., 20:].reshape(n, -1, 20, 4)
    d1 = np.hstack([gu, hu.reshape(n, 16)])
    d2 = np.concatenate([hu, tu.reshape(n, 16, 4)], axis=1)
    lap = np.einsum("nks,ns->kn", vals, d1)
    glap = np.einsum("nksm,ns->knm", parts, d1) + np.einsum("nks,nsm->knm", vals, d2)
    return lap, glap, vals[..., 4:].reshape(n, -1, 4, 4).transpose(1, 0, 2, 3)


def _degree_tables(tables, dirs):
    """P_k(n), the interior table's degree-k rows ``tables[k]`` applied to
    each direction's degree-k monomials, as (4, d, columns): at the node
    r n the table's values are the sum over k of r^k P_k(n)."""
    mono = _monomials(dirs.T)
    return np.stack([mono[rows].T @ t for rows, t in zip(_DEGREE_ROWS, tables)])


def _xi_dot(r, R, A, dirs):
    """xi.grad f = r sum_b R_b (n.A_b), (s, d); zeros (s, 1) with no terms."""
    return r[:, None] * sum(R[:, j, None] * (dirs * a).sum(-1) for j, a in enumerate(A))


def _interior_sums(u, h, b, ball, tables):
    """Interior integrals over ``ball``: I0, int b xi.grad u, the remainder
    integral int r^2 |grad u|^2 + r^4 |hess u| (0 when ``tables`` hold no
    metric), each metric's I2 metric part and I4's Ricci moments, from
    blocks of every shell times a run of directions, added in block order."""
    k, parts = tables[0].shape[1] // 40, []
    r, ws, s = ball.radii, ball.shell_w, ball.n_r
    for dirs, wd in ball.runs(max(1, JET_BLOCK // (max(k, 1) * s))):
        d = len(dirs)
        (u0, U0), (R1, U1), *second = u.polar_terms(r, dirs, 2 if k else 1)
        (h0, H0), (h1, H1) = h.polar_terms(r, dirs, 1)
        ((b0, b_ang),) = b.polar_terms(r, dirs, 0)
        e4u = np.exp(4.0 * _expand(u0[:, None], U0, 0))
        f0 = (2.0 * _expand(h0[:, None], H0, 0) + 0.5 * _xi_dot(r, h1, H1, dirs)) * e4u
        bxgu = _expand(b0[:, None], b_ang, 0) * _xi_dot(r, R1, U1, dirs)
        row = [ws @ np.broadcast_to(F, (s, d)) @ wd for F in (f0, bxgu)]
        if k:
            ((R2, U2),) = second
            B1, B = R1.shape[1], R1.shape[1] + R2.shape[1]
            # u's B angular factors against the columns they pair with: 4 of grad u, 16 of hess u
            ang = np.zeros((d, 20, B))
            for j, a in enumerate(U1):
                ang[:, :4, j] = a
            for j, a in enumerate(U2):
                ang[:, 4:, B1 + j] = a.reshape(-1, 16)
            g1, g2 = ang[:, :4, :B1], ang[:, 4:, B1:]
            Q = (_degree_tables(tables, dirs).reshape(4, d, 2 * k, 20) @ ang).transpose(0, 3, 1, 2)
            radial = np.hstack([R1, R2])
            Z = np.hstack([p[:, None] * radial for p in (np.ones_like(r), r, r * r, r * r * r)])
            lap, metric = (Z @ Q.reshape(4 * B, -1)).reshape(s, d, k, 2).transpose(3, 0, 1, 2)
            # |grad u|^2 and |hess u|^2 from per-direction Gram matrices; a
            # sum of squares formed so may round below 0 only where it is 0
            du2, d2u = (
                (R[:, :, None] * R[:, None]).reshape(s, -1) @ (g.mT @ g).reshape(d, -1).T
                for R, g in ((R1, g1), (R2, g2))
            )
            r2 = (r * r)[:, None]
            row.append(ws @ (r2 * du2 + r2 * r2 * np.sqrt(np.maximum(d2u, 0.0))) @ wd)
            row.extend(wd @ (ws @ (lap * metric).reshape(s, -1)).reshape(d, k))
            # sum w xi^l v_i d_j u, v = grad u + hess u xi = [R1, r R2] x [U1, U2 n]
            VR = np.hstack([R1, r[:, None] * R2])
            hess_n = (g2.reshape(d, 4, 4, -1) * dirs[:, None, :, None]).sum(2)
            VA = np.concatenate([g1, hess_n], axis=2)
            vg = VA @ (((ws * r)[:, None] * VR).T @ R1) @ g1.mT
            row.extend((vg.reshape(d, 16).T @ (wd[:, None] * dirs)).reshape(-1))
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
