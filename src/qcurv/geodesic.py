"""Geodesic distances on perturbed metrics and Euclidean-comparison checks.

Distances are computed by minimizing the path energy of a polyline with
fixed endpoints; the energy functional (rather than length) removes the
reparametrization degeneracy, and the length of the optimal path is
reported.  The minimizer takes damped Newton steps: with order-2 metric
jets the Hessian of the energy is exact, and block-tridiagonal, so each
step is one block-Thomas solve, linear in the number of nodes.
Comparison sweeps quantify how far the distance of a small curvature
perturbation of the flat metric departs from the Euclidean one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cnc import blowup_metric
from .fields import ChartError

GRAD_TOL = 1e-10
MAX_ITER = 50
_ROUNDING = np.finfo(float).eps


def _energy_terms(flat_interior, g, y, z, n_seg, order):
    """``[E, grad E, Hess E]`` up to ``order`` for the polyline energy
    E = n_seg sum_n D_n^T G(m_n) D_n, as functions of the interior nodes.

    Segment n joins node n (sign s = -1) to node n + 1 (s = +1), with
    D = x_{n+1} - x_n and midpoint m = (x_n + x_{n+1}) / 2.  Its gradient
    on node p is s_p 2 G D + 1/2 D^T (dG) D, and its Hessian block on nodes
    (p, q) is s_p s_q 2 G + s_p B / 2 + s_q B^T / 2 + C / 4, where
    B_ac = 2 (partial_c G_ak) D_k and C_ce = D^T (partial_c partial_e G) D.
    The Hessian is block-tridiagonal, returned as its diagonal blocks
    (m, 4, 4) and the blocks (m - 1, 4, 4) above them.
    """
    nodes = np.vstack([y, flat_interior.reshape(-1, 4), z])
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    d = nodes[1:] - nodes[:-1]
    jet = g.jet(mids, order)
    G = jet[0]
    gd = np.einsum("nab,nb->na", G, d)  # (G Delta)_a per segment
    out = [n_seg * float(np.sum(gd * d))]
    if order < 1:
        return out
    mid_term = 0.5 * np.einsum("na,nabc,nb->nc", d, jet[1], d)
    grad = np.zeros_like(nodes)
    grad[1:] += 2.0 * gd + mid_term
    grad[:-1] += -2.0 * gd + mid_term
    out.append(n_seg * grad[1:-1].ravel())
    if order < 2:
        return out
    B = 2.0 * np.einsum("nakc,nk->nac", jet[1], d)
    C = np.einsum("na,nabce,nb->nce", d, jet[2], d)
    sym = 0.5 * (B + B.transpose(0, 2, 1))
    skew = 0.5 * (B - B.transpose(0, 2, 1))
    left = 2.0 * G - sym + 0.25 * C  # (left, left) block
    right = 2.0 * G + sym + 0.25 * C  # (right, right) block
    cross = -2.0 * G - skew + 0.25 * C  # (left, right) block
    out.append((n_seg * (right[:-1] + left[1:]), n_seg * cross[1:-1]))
    return out


def _solve_block_tridiagonal(diag, upper, rhs):
    """Solve H x = rhs for the symmetric block-tridiagonal H with diagonal
    blocks ``diag`` (m, 4, 4), ``upper[i]`` at block (i, i + 1) and its
    transpose at (i + 1, i); ``rhs`` and x are (4 m,).

    Block-Thomas elimination: one 4 x 4 solve per block row, O(m).  It
    does not pivot across blocks, which a positive-definite H never needs:
    each Schur complement S_i of one is positive definite.
    """
    m = len(diag)
    b = rhs.reshape(m, 4)
    gain = np.empty((m - 1, 4, 4))  # S_i^{-1} upper_i
    y = np.empty((m, 4))  # S_i^{-1} times the eliminated right-hand side
    S, r = diag[0], b[0]
    for i in range(m - 1):
        sol = np.linalg.solve(S, np.column_stack([upper[i], r]))
        gain[i], y[i] = sol[:, :4], sol[:, 4]
        S = diag[i + 1] - upper[i].T @ gain[i]
        r = b[i + 1] - upper[i].T @ y[i]
    y[-1] = np.linalg.solve(S, r)
    for i in range(m - 2, -1, -1):
        y[i] -= gain[i] @ y[i + 1]
    return y.ravel()


@dataclass
class NewtonResult:
    """Interior nodes of the minimizer, its largest gradient entry, the
    Newton iterations and the energy evaluations they took."""

    x: np.ndarray = field(repr=False)
    grad_norm: float
    nit: int
    nfev: int


def minimize(x0, g, y, z, n_seg):
    """Damped Newton descent of the polyline energy from interior nodes x0.

    Stops when the largest gradient entry is at most ``GRAD_TOL`` (at once
    when there are no interior nodes) or the Newton step is at the rounding
    floor of the nodes.  A step is halved while the energy rises, unless its
    first-order energy change |grad . step| is below the energy's rounding,
    where no comparison of energies can judge it and it is taken whole.  Raises ``RuntimeError``
    when the halving reaches the rounding floor (no descent) or
    ``MAX_ITER`` steps do not converge.
    """
    x = np.asarray(x0, float)
    energy, grad, hess = _energy_terms(x, g, y, z, n_seg, 2)
    nfev = 1
    for nit in range(MAX_ITER + 1):
        gnorm = float(np.max(np.abs(grad), initial=0.0))
        if gnorm <= GRAD_TOL:
            break
        step = _solve_block_tridiagonal(*hess, -grad)
        floor = _ROUNDING * max(1.0, float(np.max(np.abs(x))))
        if np.max(np.abs(step)) <= floor:
            break
        if nit == MAX_ITER:
            raise RuntimeError(
                f"geodesic solver did not converge: gradient {gnorm:.3e} "
                f"after {MAX_ITER} Newton steps"
            )
        if abs(float(grad @ step)) > 16.0 * _ROUNDING * abs(energy):
            while _energy_terms(x + step, g, y, z, n_seg, 0)[0] > energy:
                nfev += 1
                step *= 0.5
                if np.max(np.abs(step)) <= floor:
                    raise RuntimeError(
                        f"geodesic solver did not converge: no descent at gradient {gnorm:.3e}"
                    )
            nfev += 1
        x = x + step
        energy, grad, hess = _energy_terms(x, g, y, z, n_seg, 2)
        nfev += 1
    return NewtonResult(x, gnorm, nit, nfev)


def geodesic_distance(g, y, z, n_nodes, full_output=False):
    """Length of the energy-minimizing polyline from y to z.

    Equals |y - z| exactly for the flat metric (the straight equispaced
    polyline is already stationary); two nodes give the straight segment's
    length under g.  The length sums sqrt(D^T G D) over the segments, G at
    each segment's midpoint.  Raises ``ValueError`` for fewer than two
    nodes, and on non-convergence or if the optimal path leaves the
    metric's domain.  With ``full_output`` returns ``(length, NewtonResult)``.
    """
    if n_nodes < 2:
        raise ValueError(f"a path needs at least 2 nodes, got {n_nodes}")
    y = np.asarray(y, float)
    z = np.asarray(z, float)
    t = np.linspace(0.0, 1.0, n_nodes)[:, None]
    nodes = (1.0 - t) * y + t * z
    g.domain.require_interior(nodes)
    if g.is_flat:
        res = NewtonResult(nodes[1:-1].ravel(), 0.0, 0, 0)
        length = float(np.linalg.norm(y - z))
    else:
        res = minimize(nodes[1:-1].ravel(), g, y, z, n_nodes - 1)
        nodes = np.vstack([y, res.x.reshape(-1, 4), z])
        if not g.domain.contains(nodes).all():
            raise ChartError("optimal path left the metric domain")
        G = g.jet(0.5 * (nodes[:-1] + nodes[1:]), 0)[0]
        d = nodes[1:] - nodes[:-1]
        length = float(np.sum(np.sqrt(np.einsum("na,nab,nb->n", d, G, d))))
    return (length, res) if full_output else length


def distance_ratio_sweep(jet, eps_list, pairs, n_nodes):
    """Fit c in |d_g/|y-z| - 1| <= c eps^2 (|y|^2 + |z|^2) over an eps sweep.

    The metric is the blow-up expansion of the jet with its quadratic term
    scaled by eps^2 (cubic by eps^3).  Returns per-pair rows, the per-eps
    worst constant, and the log-log exponent of the mean ratio gap in eps
    (2 for a genuine second-order departure).  Each row's ``error_estimate`` is the
    node-halving change |d(n) - d(max(n // 2, 8))| of its distance, and
    ``newton_iters`` and ``grad_norm`` report the solve at n nodes.
    """
    eps_list = [float(e) for e in eps_list]
    if any(e <= 0 for e in eps_list):
        raise ValueError("eps values must be positive")
    rows = []
    per_eps_c = {}
    mean_gap = []
    for eps in eps_list:
        g = blowup_metric(jet, eps, half_width=4.0 / eps)
        consts, gaps = [], []
        for y, z in pairs:
            y = np.asarray(y, float)
            z = np.asarray(z, float)
            euclid = float(np.linalg.norm(y - z))
            geod, res = geodesic_distance(g, y, z, n_nodes=n_nodes, full_output=True)
            coarse = geodesic_distance(g, y, z, n_nodes=max(n_nodes // 2, 8))
            gap = abs(geod / euclid - 1.0)
            scale = eps**2 * (np.dot(y, y) + np.dot(z, z))
            c = gap / scale
            rows.append(
                {
                    "eps": eps,
                    "y_norm": float(np.linalg.norm(y)),
                    "z_norm": float(np.linalg.norm(z)),
                    "euclid": euclid,
                    "geodesic": geod,
                    "ratio_gap": gap,
                    "fitted_c": c,
                    "error_estimate": abs(geod - coarse),
                    "newton_iters": res.nit,
                    "grad_norm": res.grad_norm,
                }
            )
            consts.append(c)
            gaps.append(gap)
        per_eps_c[eps] = float(np.max(consts))
        mean_gap.append(float(np.mean(gaps)))
    slope = float(np.polyfit(np.log(eps_list), np.log(mean_gap), 1)[0])
    return {"rows": rows, "per_eps_c": per_eps_c, "eps_exponent": slope}

