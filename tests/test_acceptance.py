"""Acceptance battery: ten criteria, one pass/fail line each.

Each test prints a single summary line (visible under ``pytest -v -s``,
``-rP`` and in failure reports) and then asserts the criterion.  The suites
are the same ones the CLI runs; values reported here are identical to the
JSON the CLI emits for the default parameters.

Criteria 3 and 5 assert the law the quantity provably obeys -- the
closed-form truncated bubble mass, and the eps^2 scaling of the curved
Pohozaev terms -- and not the CLI's band for it.  The CLI checks
``mass_over_16pi2``, ``alpha_rel_gap_eps_le_1e-3`` and ``curved_eps_slope``
keep bands that these laws rule out at the default radii and jets, so they
fail at defaults; their values and verdicts are printed on the criterion
line next to the asserted law.
"""

import numpy as np

from qcurv.cli import BUBBLE_H, DEFAULTS, RUNNERS


def _suite(name, seed=0):
    checks, rows = RUNNERS[name](dict(DEFAULTS[name]), seed)
    return {c["name"]: c for c in checks}, rows


def _run(name, seed=0):
    return _suite(name, seed)[0]


def _report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}", flush=True)
    return ok


def _cli_verdict(c, fmt):
    """The CLI's own value and verdict for a check, for the criterion line."""
    return f"CLI {c['name']} = {c['value']:{fmt}} against {c['bound']}: {'PASS' if c['pass'] else 'FAIL'}"


def test_criterion_01_bubble_identity():
    c = _run("bubble-check")["max_pde_residual"]
    ok = c["pass"]
    assert _report(1, ok, f"max bubble residual {c['value']:.3e} (bound 1e-10)")


def test_criterion_02_linearized_kernel():
    c = _run("kernel-check")["max_linearized_residual"]
    ok = c["pass"]
    assert _report(2, ok, f"max linearized residual {c['value']:.3e} (bound 1e-8)")


def _quantized_mass(H, R):
    """2H int_{B_R} e^{4U} for U = -log(1 + rho |y|^2), rho = sqrt(H)/(4 sqrt 3)."""
    T = np.sqrt(H) / (4.0 * np.sqrt(3.0)) * R**2
    return 16.0 * np.pi**2 * (1.0 - 3.0 / (1.0 + T) ** 2 + 2.0 / (1.0 + T) ** 3)


def test_criterion_03_energy_quantization():
    """Energy quantization as the truncated bubble mass obeys it.

    With rho^2 = H/48 and s = rho r^2, so that r^3 dr = s ds / (2 rho^2),

        2H |S^3| int_0^R r^3 (1 + rho r^2)^-4 dr
            = 96 pi^2 int_0^T s (1+s)^-4 ds
            = 16 pi^2 (1 - 3/(1+T)^2 + 2/(1+T)^3),    T = rho R^2,

    which tends to 16 pi^2 with an R^-4 tail.  Every ``mass`` row (both the
    quadrature and the ``exact`` column) and every ``alpha-sweep`` row with
    eps <= 1e-3, whose ball is B_L with L = -log eps, must equal it to
    1e-10 relative, and the suites' tail-law checks must pass.

    The CLI bands cannot hold: at R = 10, T = 14.43 and the ratio is
    0.98795 (the band [0.999, 1.001] needs R >= 19.3); at eps = 1e-3, 1e-4,
    1e-5 the relative gaps are 0.0441, 0.0162, 0.0072 (bound 0.005).  Both
    bands would hold for the unit bubble -log(1 + |z|^2), z = sqrt(rho) y:
    R_z = 10 gives 0.99971 and eps = 1e-3 a gap of 1.2e-3.
    """
    m, mass_rows = _suite("mass")
    a, alpha_rows = _suite("alpha-sweep")

    # mass rows: R, quadrature, exact, error estimate
    gaps = [
        abs(v / _quantized_mass(BUBBLE_H, r["R"]) - 1.0)
        for r in mass_rows
        for v in (r["mass"], r["exact"])
    ]
    # alpha rows: eps, L, alpha, gap, rel_gap, error estimate
    small = [(r["eps"], r["alpha"]) for r in alpha_rows if r["eps"] <= 1e-3]
    gaps += [abs(alpha / _quantized_mass(BUBBLE_H, -np.log(eps)) - 1.0) for eps, alpha in small]
    law = max(gaps)
    tails = m["tail_log_slope"]["pass"] and a["deviation_faster_than_1_over_L"]["pass"]
    ok = len(mass_rows) == 5 and len(small) == 3 and law <= 1e-10 and tails
    assert _report(
        3,
        ok,
        f"{len(mass_rows)} mass rows and {len(small)} alpha rows (eps <= 1e-3) match "
        f"16pi^2 (1 - 3/(1+T)^2 + 2/(1+T)^3) to {law:.1e} rel (bound 1e-10); "
        f"tail slope {m['tail_log_slope']['value']:.3f} (-4 +- 0.2), alpha-gap "
        f"log-slope {a['deviation_faster_than_1_over_L']['value']:.3f} (< -1); "
        f"{_cli_verdict(m['mass_over_16pi2'], '.5f')}; "
        f"{_cli_verdict(a['alpha_rel_gap_eps_le_1e-3'], '.4f')}",
    )


def test_criterion_04_green_function():
    g = _run("green-fit")
    r = _run("represent")["max_representation_deviation"]
    ok = g["c_log_rel_error"]["pass"] and g["symmetry_defect"]["pass"] and r["pass"]
    assert _report(
        4,
        ok,
        f"log coefficient off by {g['c_log_rel_error']['value']:.4f} rel (bound 2%), "
        f"symmetry {g['symmetry_defect']['value']:.2e}, representation "
        f"{r['value']:.2e} (bound 1e-9)",
    )


def test_criterion_05_pohozaev():
    """Flat Pohozaev balance, and the curved terms at their derived order eps^2.

    ``scale_jet(jet, eps)`` makes the metric perturbation linear in eps,
    but its first-order share of I2 cancels:

    - in the det-one conformal-normal gauge g^{ij} x_j = x^i, so the radial
      part of u, whose gradient is f'(r) x/r, does not feel the
      perturbation;
    - the tilt's first-order terms vanish by parity for the quadratic (R0)
      part of the metric, and reduce to Ric(0) and the symmetrized
      Ric_(ij,k)(0) for the cubic (R1) part, which vanish in these
      coordinates (Lee & Parker, Bull. AMS 17 (1987), sec. 5).

    So I2 = O(eps^2).  On the suite's seed-0 jet I2 = 2.867e-3, 7.168e-4,
    1.792e-4 at eps = 0.1, 0.05, 0.025 (each step a ratio of 4.000),
    I2(-eps) = I2(eps), I2 scales with tilt^2, and I3, I4 sit at rounding
    level.  The slope must be 2 +- 0.3 (the CLI's width, re-centred); the
    CLI's band 1 +- 0.3 is what a surviving linear term would give.
    """
    c = _run("pohozaev")
    slope = c["curved_eps_slope"]["value"]
    ok = c["flat_rel_residual"]["pass"] and c["radial_third_vs_fd"]["pass"] and abs(slope - 2.0) <= 0.3
    assert _report(
        5,
        ok,
        f"flat residual {c['flat_rel_residual']['value']:.2e} (bound 1e-4), "
        f"curved eps-slope {slope:.3f} (band 2 +- 0.3: the first-order curvature "
        f"terms cancel), third-derivative FD gap "
        f"{c['radial_third_vs_fd']['value']:.2e} (bound 1e-6); "
        f"{_cli_verdict(c['curved_eps_slope'], '.3f')}",
    )


def test_criterion_06_conformal_structure():
    import sympy as sp

    from qcurv.curvature import (
        check_conformal_covariance,
        gauss_bonnet_check,
        q_curvature,
    )
    from qcurv.fields import Box, COORDS, MetricField, ScalarField
    from qcurv.models import SphereModel, sphere_metric

    x0, x1, x2, _ = COORDS
    R2 = sum(c**2 for c in COORDS)
    dom = Box.cube(5.0)
    g = MetricField.flat(dom)
    u = ScalarField.from_expr(sp.log(2 / (1 + R2)), dom)
    f = ScalarField.from_expr(x0**2 * x1 + x2, dom)
    pts = np.array([[0.3, 0.1, -0.2, 0.4], [0.0, 0.5, 0.2, -0.1]])
    d1 = check_conformal_covariance(g, u, f, pts, step=0.08)
    d2 = check_conformal_covariance(g, u, f, pts, step=0.04)
    order = float(np.log2(d1 / d2))

    gs = sphere_metric()
    q_gap = max(
        abs(q_curvature(gs, x) - 3.0)
        for x in (np.zeros(4), np.array([0.5, 0.0, -0.3, 0.2]))
    )
    total = gauss_bonnet_check(SphereModel(n_theta=12, n_u=6, n_phi=6))
    target = 8.0 * np.pi**2
    gb_rel = abs(total - target) / target

    ok = abs(order - 4.0) <= 0.5 and q_gap <= 1e-6 and gb_rel <= 0.01
    assert _report(
        6,
        ok,
        f"covariance refinement order {order:.2f} (target 4 +- 0.5), "
        f"max |Q - 3| on the round sphere {q_gap:.2e} (bound 1e-6), "
        f"total-curvature integral off by {gb_rel:.4f} rel (bound 1%)",
    )


def test_criterion_07_cnc_algebra():
    c = _run("cnc")["exact_identity_failures"]
    ok = c["pass"]
    assert _report(7, ok, f"{c['value']} exact-arithmetic identity failures over 50 jets")


def test_criterion_08_distance_comparison():
    c = _run("distance")
    ok = c["constant_stability"]["pass"] and c["eps_exponent"]["pass"]
    assert _report(
        8,
        ok,
        f"ratio-constant spread {c['constant_stability']['value']:.3f} (bound 0.25), "
        f"eps-exponent {c['eps_exponent']['value']:.3f} (band 2 +- 0.3)",
    )


def test_criterion_09_long_range_rings():
    c = _run("longrange")
    names = ("slope_v_vs_logr", "lap_v_times_L2", "dr_lap_v_times_L3")
    ok = all(c[k]["pass"] for k in names)
    assert _report(
        9,
        ok,
        "; ".join(f"{k} = {c[k]['value']:.4f} (bound {c[k]['bound']})" for k in names),
    )


def test_criterion_10_vanishing_rate():
    c = _run("vrate")
    ok = c["tuned_balance"]["pass"] and c["untuned_vs_fd_oracle"]["pass"]
    assert _report(
        10,
        ok,
        f"tuned balance {c['tuned_balance']['value']:.2e} (bound 1e-8), "
        f"untuned vs derivative oracle {c['untuned_vs_fd_oracle']['value']:.2e} (bound 1e-6)",
    )
