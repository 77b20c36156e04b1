from fractions import Fraction

import numpy as np
import pytest

from qcurv.cnc import blowup_metric, random_conformal_normal_jet, scale_jet
from qcurv.fields import Box, MetricField
from qcurv.geodesic import (
    GRAD_TOL,
    _energy_terms,
    _solve_block_tridiagonal,
    distance_ratio_sweep,
    geodesic_distance,
)
from qcurv.models import sphere_metric


def sphere_oracle(y, z):
    """Round-sphere distance in the stereographic chart (unit radius)."""
    y = np.asarray(y, float)
    z = np.asarray(z, float)
    chord = np.linalg.norm(y - z)
    return 2.0 * np.arcsin(
        chord / np.sqrt((1.0 + y @ y) * (1.0 + z @ z))
    )


def test_flat_distance_is_euclidean():
    g = MetricField.flat(Box.cube(10.0))
    y = np.array([1.0, -2.0, 0.5, 3.0])
    z = np.array([-0.5, 1.0, 2.0, -1.0])
    assert geodesic_distance(g, y, z) == np.linalg.norm(y - z)


def test_polyline_validation_and_energy():
    # fewer than two nodes make no polyline; two make the straight segment
    g = sphere_metric(Box.cube(4.0))
    y, z = np.array([0.3, 0.1, -0.2, 0.0]), np.array([-0.4, 0.2, 0.1, 0.3])
    for n in (1, 0):
        with pytest.raises(ValueError, match="at least 2 nodes"):
            geodesic_distance(g, y, z, n_nodes=n)
    # no interior node to move: the segment's length under g = 4 (1 + |m|^2)^-2 delta
    # at its midpoint m, with no Newton step
    length, res = geodesic_distance(g, y, z, n_nodes=2, full_output=True)
    m = 0.5 * (y + z)
    assert abs(length - 2.0 / (1.0 + m @ m) * np.linalg.norm(z - y)) < 1e-14
    assert (res.x.size, res.grad_norm, res.nit, res.nfev) == (0, 0.0, 0, 1)
    flat = MetricField.flat(Box.cube(10.0))
    assert geodesic_distance(flat, np.zeros(4), np.array([1.0, 0, 0, 0]), n_nodes=2) == 1.0


def test_sphere_distance_matches_oracle():
    g = sphere_metric(Box.cube(4.0))
    pairs = [
        (np.array([0.3, 0.1, -0.2, 0.0]), np.array([-0.4, 0.2, 0.1, 0.3])),
        (np.array([0.8, 0.0, 0.0, 0.0]), np.array([0.0, 0.6, 0.0, 0.0])),
    ]
    for y, z in pairs:
        # the midpoint polyline is second order in the node count, so
        # Richardson extrapolation of the 128/256 pair is nearly exact
        d128 = geodesic_distance(g, y, z, n_nodes=128)
        d256 = geodesic_distance(g, y, z, n_nodes=256)
        assert abs(d256 - sphere_oracle(y, z)) < 5e-6
        extrap = (4.0 * d256 - d128) / 3.0
        assert abs(extrap - sphere_oracle(y, z)) < 2e-7


def test_distance_symmetry_and_triangle():
    g = sphere_metric(Box.cube(4.0))
    y = np.array([0.5, 0.2, 0.0, -0.1])
    z = np.array([-0.3, 0.4, 0.2, 0.0])
    w = np.array([0.1, -0.2, 0.5, 0.3])
    dyz = geodesic_distance(g, y, z, n_nodes=96)
    dzy = geodesic_distance(g, z, y, n_nodes=96)
    assert abs(dyz - dzy) < 1e-8
    dyw = geodesic_distance(g, y, w, n_nodes=96)
    dwz = geodesic_distance(g, w, z, n_nodes=96)
    assert dyz <= dyw + dwz + 1e-10


def test_node_refinement_converged():
    g = sphere_metric(Box.cube(4.0))
    y = np.array([0.6, -0.1, 0.2, 0.0])
    z = np.array([-0.2, 0.3, 0.0, 0.4])
    d0 = geodesic_distance(g, y, z, n_nodes=64)
    d1 = geodesic_distance(g, y, z, n_nodes=128)
    d2 = geodesic_distance(g, y, z, n_nodes=256)
    assert abs(d1 - d2) < 1e-5
    # second-order refinement: each doubling shrinks the update ~4x
    assert abs(d1 - d2) < 0.5 * abs(d0 - d1)


def test_ratio_sweep_stability_and_exponent():
    from qcurv.cnc import CurvatureJet

    jet = CurvatureJet.constant_curvature(Fraction(1, 2))
    pairs = [
        (np.array([1.0, 0.3, -0.2, 0.1]), np.array([-0.5, 0.4, 0.2, -0.3])),
        (np.array([0.8, -0.6, 0.1, 0.0]), np.array([0.2, 0.5, -0.4, 0.3])),
    ]
    out = distance_ratio_sweep(jet, [0.1, 0.05, 0.025], pairs, n_nodes=32)
    assert len(out["rows"]) == 6
    # the fitted constant is stable across the sweep ...
    cs = list(out["per_eps_c"].values())
    assert max(cs) / min(cs) < 2.0
    # ... because the departure is genuinely second order in eps
    assert abs(out["eps_exponent"] - 2.0) < 0.3
    with pytest.raises(ValueError):
        distance_ratio_sweep(jet, [0.1, -0.1], pairs)


def test_ratio_sweep_error_estimate_on_every_row():
    jet = scale_jet(random_conformal_normal_jet(rng=7), Fraction(1, 10))
    pairs = [
        (np.array([1.0, 0.3, -0.2, 0.1]), np.array([-0.5, 0.4, 0.2, -0.3])),
        (np.array([0.8, -0.6, 0.1, 0.0]), np.array([0.2, 0.5, -0.4, 0.3])),
    ]
    out = distance_ratio_sweep(jet, [0.1, 0.05], pairs, n_nodes=24)
    assert all(r["error_estimate"] > 0.0 for r in out["rows"])
    # the node-halving change of the second pair at the second eps
    row = out["rows"][3]
    assert (row["eps"], row["y_norm"]) == (0.05, float(np.linalg.norm(pairs[1][0])))
    g = blowup_metric(jet, 0.05, half_width=4.0 / 0.05)
    y, z = pairs[1]
    coarse = geodesic_distance(g, y, z, n_nodes=12)
    assert row["geodesic"] == geodesic_distance(g, y, z, n_nodes=24)
    assert row["error_estimate"] == abs(row["geodesic"] - coarse)


class _NoSecondDerivative:
    """The metric with its second derivatives zeroed: drops the C / 4 term
    of the energy Hessian and nothing else."""

    def __init__(self, g):
        self.g = g

    def jet(self, pts, order):
        G, dG, d2G = self.g.jet(pts, order)
        return [G, dG, np.zeros_like(d2G)]


def test_newton_hessian_matches_central_difference_of_gradient():
    g = blowup_metric(random_conformal_normal_jet(rng=3), 0.5, half_width=8.0)
    y, z = np.array([1.0, 0.3, -0.2, 0.1]), np.array([-0.5, 0.4, 0.2, -0.3])
    n_seg = 5
    t = np.linspace(0.0, 1.0, n_seg + 1)[1:-1, None]
    bend = 0.05 * np.random.default_rng(0).standard_normal((n_seg - 1, 4))
    x = ((1.0 - t) * y + t * z + bend).ravel()
    h = 1e-5
    fd = np.empty((x.size, x.size))
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        up = _energy_terms(x + e, g, y, z, n_seg, 1)[1]
        fd[:, j] = (up - _energy_terms(x - e, g, y, z, n_seg, 1)[1]) / (2.0 * h)
    hess = _dense(*_energy_terms(x, g, y, z, n_seg, 2)[2])
    assert np.max(np.abs(hess - fd)) <= 1e-8 * np.max(np.abs(hess))
    no_c = _dense(*_energy_terms(x, _NoSecondDerivative(g), y, z, n_seg, 2)[2])
    assert np.max(np.abs(no_c - fd)) > 1e-3 * np.max(np.abs(hess))


def _dense(diag, upper):
    """The symmetric block-tridiagonal matrix of ``_energy_terms``' blocks."""
    m = len(diag)
    i = np.arange(m)
    H = np.zeros((m, 4, m, 4))
    H[i, :, i, :] = diag
    H[i[:-1], :, i[1:], :] = upper
    H[i[1:], :, i[:-1], :] = upper.transpose(0, 2, 1)
    return H.reshape(4 * m, 4 * m)


def test_block_thomas_matches_dense_solve():
    rng = np.random.default_rng(11)
    for m in (1, 2, 7, 64):
        upper = rng.standard_normal((m - 1, 4, 4))
        a = rng.standard_normal((m, 4, 4))
        # A A^T + 9 I outweighs the unit-variance off-diagonal blocks: SPD
        diag = a @ a.transpose(0, 2, 1) + 9.0 * np.eye(4)
        H = _dense(diag, upper)
        assert np.linalg.eigvalsh(H)[0] > 0.0
        rhs = rng.standard_normal(4 * m)
        want = np.linalg.solve(H, rhs)
        got = _solve_block_tridiagonal(diag, upper, rhs)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_newton_solve_reports_iterations_and_gradient():
    g = sphere_metric(Box.cube(4.0))
    y, z = np.array([0.3, 0.1, -0.2, 0.0]), np.array([-0.4, 0.2, 0.1, 0.3])
    length, res = geodesic_distance(g, y, z, n_nodes=32, full_output=True)
    assert length == geodesic_distance(g, y, z, n_nodes=32)
    assert isinstance(res.nit, int) and isinstance(res.nfev, int)
    assert 1 <= res.nit < res.nfev
    assert 0.0 < res.grad_norm <= GRAD_TOL
    jet = scale_jet(random_conformal_normal_jet(rng=7), Fraction(1, 10))
    rows = distance_ratio_sweep(jet, [0.1, 0.05], [(y, z)], n_nodes=16)["rows"]
    assert all(r["newton_iters"] >= 1 and r["grad_norm"] <= GRAD_TOL for r in rows)
