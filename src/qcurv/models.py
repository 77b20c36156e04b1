"""The round S^4 in a stereographic chart, as a closed model.

The S^4 chart covers the sphere minus a point with metric
g = 4 (1 + |x|^2)^{-2} delta.  Global quadrature substitutes r = tan(theta/2)
so that chart radii map to polar angle theta on the sphere; the volume
element is sin^3(theta) d(theta) dS^3.
"""

import numpy as np

from .curvature import conformal_transform
from . import fields
from .fields import Box, MetricField, ScalarField
from .quadrature import gauss_legendre, s3_nodes

S4_VOLUME = 8.0 * np.pi**2 / 3.0


def sphere_metric(domain=None) -> MetricField:
    """Round unit-S^4 metric in the stereographic chart."""
    if domain is None:
        domain = Box.cube(100.0)
    r2 = sum(c**2 for c in fields.COORDS)
    return MetricField(domain, 4 / (1 + r2) ** 2)


class SphereModel:
    """S^4 with a global chart quadrature (for Gauss-Bonnet-type integrals).

    ``quad_weights`` already include the Riemannian volume element, so
    ``sum(w * f(points))`` approximates the integral of f over the sphere.
    An optional conformal factor e^{2u} (u a sympy expr in the chart)
    perturbs the metric; the volume element picks up e^{4u}.
    """

    def __init__(self, n_theta=16, n_u=8, n_phi=8, conformal_expr=None):
        domain = Box.cube(1e4)
        self.metric = sphere_metric(domain)
        theta, wth = gauss_legendre(n_theta, 0.0, np.pi)
        sphere_pts, sphere_w = s3_nodes(n_u, n_phi)
        r = np.tan(theta / 2.0)
        pts = r[:, None, None] * sphere_pts[None, :, :]
        # round-sphere volume element in (theta, S^3) coordinates: sin^3(theta)
        w = (wth * np.sin(theta) ** 3)[:, None] * sphere_w[None, :]
        self.quad_points = pts.reshape(-1, 4)
        self.quad_weights = w.reshape(-1)
        self.volume = S4_VOLUME
        if conformal_expr is not None:
            u = ScalarField.from_expr(conformal_expr, domain)
            self.metric = conformal_transform(self.metric, u)
            self.quad_weights = self.quad_weights * np.exp(4.0 * u.jet(self.quad_points, 0)[0])
            self.volume = float(np.sum(self.quad_weights))

