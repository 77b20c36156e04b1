"""Geodesic distances on perturbed metrics and Euclidean-comparison checks.

Distances are computed by minimizing the path energy of a polyline with
fixed endpoints; the energy functional (rather than length) removes the
reparametrization degeneracy, and the length of the optimal path is
reported.  Comparison sweeps quantify how far the distance of a small
curvature perturbation of the flat metric departs from the Euclidean one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .cnc import blowup_metric
from .fields import ChartError

DEFAULT_NODES = 64
GRAD_TOL = 1e-10
MAX_ITER = 5000


@dataclass
class PathPolyline:
    """Ordered chart-coordinate nodes with fixed endpoints."""

    nodes: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.nodes = np.atleast_2d(np.asarray(self.nodes, float))
        if self.nodes.shape[0] < 2 or self.nodes.shape[1] != 4:
            raise ValueError("polyline needs >= 2 nodes of dimension 4")

    @property
    def midpoints(self):
        return 0.5 * (self.nodes[:-1] + self.nodes[1:])

    @property
    def deltas(self):
        return self.nodes[1:] - self.nodes[:-1]

    def length(self, g):
        G = g.eval_batch(self.midpoints)
        d = self.deltas
        return float(np.sum(np.sqrt(np.einsum("na,nab,nb->n", d, G, d))))


def _energy_and_grad(flat_interior, g, y, z, n_seg):
    nodes = np.vstack([y, flat_interior.reshape(-1, 4), z])
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    d = nodes[1:] - nodes[:-1]
    G, dG = g.jet(mids, 1)
    quad = np.einsum("na,nab,nb->n", d, G, d)
    energy = n_seg * float(np.sum(quad))
    # dE/dx_p collects the two adjacent segments: the Delta endpoints and
    # the half-weight of each midpoint inside g(m).
    gd = np.einsum("nab,nb->na", G, d)  # (G Delta)_a per segment
    mid_term = 0.5 * np.einsum("na,nabc,nb->nc", d, dG, d)
    grad = np.zeros_like(nodes)
    grad[1:] += 2.0 * gd + mid_term
    grad[:-1] += -2.0 * gd + mid_term
    return energy, n_seg * grad[1:-1].ravel()


def geodesic_distance(g, y, z, n_nodes=DEFAULT_NODES):
    """Length of the energy-minimizing polyline from y to z.

    Equals |y - z| exactly for the flat metric (the straight equispaced
    polyline is already stationary).  Raises on non-convergence or if the
    optimal path leaves the metric's domain.
    """
    y = np.asarray(y, float)
    z = np.asarray(z, float)
    t = np.linspace(0.0, 1.0, n_nodes)[:, None]
    nodes = (1.0 - t) * y + t * z
    g.domain.require_interior(nodes)
    if g.is_flat:
        return float(np.linalg.norm(y - z))
    n_seg = n_nodes - 1
    res = minimize(
        _energy_and_grad,
        nodes[1:-1].ravel(),
        args=(g, y, z, n_seg),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": MAX_ITER, "gtol": GRAD_TOL, "ftol": 1e-16},
    )
    # L-BFGS line searches stall near the rounding floor of the energy; a
    # residual gradient of size s only perturbs the length at order s^2,
    # so anything at or below 1e-6 is converged for our purposes.
    gnorm = float(np.max(np.abs(res.jac)))
    if not res.success and gnorm > max(1e3 * GRAD_TOL, 1e-6):
        raise RuntimeError(f"geodesic solver did not converge: {res.message}")
    path = PathPolyline(np.vstack([y, res.x.reshape(-1, 4), z]))
    if not g.domain.contains(path.nodes).all():
        raise ChartError("optimal path left the metric domain")
    return path.length(g)


def distance_ratio_sweep(jet, eps_list, pairs, n_nodes=DEFAULT_NODES):
    """Fit c in |d_g/|y-z| - 1| <= c eps^2 (|y|^2 + |z|^2) over an eps sweep.

    The metric is the blow-up expansion of the jet with its quadratic term
    scaled by eps^2 (cubic by eps^3).  Returns per-pair rows, the per-eps
    worst constant, and the log-log exponent of the mean ratio gap in eps
    (2 for a genuine second-order departure).  Each row's ``error_estimate`` is the
    node-halving change |d(n) - d(max(n // 2, 8))| of its distance.
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
            geod = geodesic_distance(g, y, z, n_nodes=n_nodes)
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
                }
            )
            consts.append(c)
            gaps.append(gap)
        per_eps_c[eps] = float(np.max(consts))
        mean_gap.append(float(np.mean(gaps)))
    slope = float(np.polyfit(np.log(eps_list), np.log(mean_gap), 1)[0])
    return {"rows": rows, "per_eps_c": per_eps_c, "eps_exponent": slope}

