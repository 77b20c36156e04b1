import numpy as np
import pytest

from qcurv.bubble import (
    MASS_LIMIT,
    RHO0,
    BubbleParams,
    RescaledBubble,
    bubble_eval,
    bubble_pde_residual,
    kernel_elements,
    linearized_residual,
    mass_integral,
    mass_integral_exact,
    rescaling_identity_gap,
    weighted_sup_norm,
)
from qcurv.cli import _SmoothRadial
from qcurv.harness import long_range_checks


def test_bubble_eval_basic_values():
    b = BubbleParams(p=(0, 0, 0, 0), eps=0.1, H=1.0)
    assert abs(bubble_eval(b, 0.0) + np.log(0.1)) < 1e-14
    b1 = BubbleParams(p=(0, 0, 0, 0), eps=1.0, H=1.0)
    assert bubble_eval(b1, 0.0) == 0.0
    with pytest.raises(ValueError):
        bubble_eval(b, -1.0)


def test_bubble_params_validation():
    with pytest.raises(ValueError):
        BubbleParams(p=(0, 0, 0, 0), eps=0.0, H=1.0)
    with pytest.raises(ValueError):
        BubbleParams(p=(0, 0, 0, 0), eps=0.1, H=1e-6)


def test_rescaling_identity_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        b = BubbleParams(
            p=tuple(rng.uniform(-2, 2, 4)),
            eps=float(rng.uniform(0.01, 3.0)),
            H=float(rng.uniform(0.5, 2.0)),
        )
        assert rescaling_identity_gap(b, rng.uniform(-5, 5, 4)) < 1e-14


def test_pde_residual_identity():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(10):
        H = float(rng.uniform(0.5, 2.0))
        pts = rng.uniform(-50, 50, (1000, 4))
        worst = max(worst, float(np.max(np.abs(bubble_pde_residual(RescaledBubble(H), pts)))))
    assert worst < 1e-10


def test_pde_values_at_origin():
    for H in (1.0, 0.5, 1.7):
        rb = RescaledBubble(H)
        assert abs(rb.bilap(np.zeros(1))[0] - 2.0 * H) < 1e-13


def test_radial_derivatives_consistent():
    # each entry of a profile's list is the central difference of the one
    # before it, and the long-range rings' Delta v = v'' + 3v'/r and
    # d_r Delta v = v''' + 3v''/r - 3v'/r^2 match the bubble's closed forms
    r = np.linspace(0.1, 20.0, 50)
    h = 1e-5
    for prof in (RescaledBubble(1.3), _SmoothRadial(0.7, 1.9)):
        f, fp, fm = prof.radial(r), prof.radial(r + h), prof.radial(r - h)
        assert len(f) == 4
        for k in range(3):
            fd = (fp[k] - fm[k]) / (2 * h)
            assert np.max(np.abs(fd - f[k + 1]) / (1.0 + np.abs(f[k + 1]))) < 1e-9, k

    def closed_forms(rb, r):
        s = rb.rho * r**2
        lap = -4.0 * rb.rho * (2.0 + s) / (1.0 + s) ** 2
        return lap, 8.0 * rb.rho**2 * r * (3.0 + s) / (1.0 + s) ** 3

    rb = RescaledBubble(1.3)
    _, f1, f2, f3 = rb.radial(r)
    lap, dlap = closed_forms(rb, r)
    assert np.max(np.abs(f2 + 3.0 * f1 / r - lap) / np.abs(lap)) < 1e-13
    assert np.max(np.abs(f3 + 3.0 * f2 / r - 3.0 * f1 / r**2 - dlap) / np.abs(dlap)) < 1e-13
    eps = 1e-4
    rings = {row["name"]: row["value"] for row in long_range_checks(rb, eps)}
    L = -np.log(eps)
    lap, dlap = closed_forms(rb, L)
    assert rings["lap_v_times_L2"] == pytest.approx(lap * L**2, rel=1e-13)
    assert rings["dr_lap_v_times_L3"] == pytest.approx(dlap * L**3, rel=1e-13)


def test_kernel_elements_identity():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-50, 50, (2000, 4))
    res = linearized_residual(pts)
    assert res.shape == (5, 2000)
    assert np.max(np.abs(res)) < 1e-8


def test_kernel_origin_values():
    val, bilap = kernel_elements(np.zeros((1, 4)))
    assert val.shape == bilap.shape == (5, 1)
    assert abs(val[0, 0] - 1.0) < 1e-15
    assert abs(bilap[0, 0] - 8.0) < 1e-13
    # the translations vanish at the origin
    assert np.all(val[1:] == 0.0) and np.all(bilap[1:] == 0.0)


def test_mass_integral_monotone_and_tail():
    rb = RescaledBubble(1.0)
    radii = [5.0, 10.0, 20.0, 40.0, 80.0]
    vals = [mass_integral(rb, R) for R in radii]
    assert all(b > a for a, b in zip(vals[:-1], vals[1:]))
    gaps = [abs(MASS_LIMIT - mass_integral_exact(rb, R)) for R in radii[1:]]
    slope = np.polyfit(np.log(radii[1:]), np.log(gaps), 1)[0]
    assert abs(slope + 4.0) < 0.2
    assert mass_integral(rb, 0.0) == 0.0


def test_mass_integral_matches_closed_form():
    rb = RescaledBubble(1.4)
    for R in (1.0, 10.0, 100.0):
        assert abs(mass_integral(rb, R) - mass_integral_exact(rb, R)) < 1e-9


def test_four_radii_are_radii_not_a_point():
    # a 1-D array of length 4 holds four radii
    rb = RescaledBubble(1.0)
    r = np.array([0.5, 1.0, 2.0, 3.0])
    np.testing.assert_array_equal(rb.exp4u(r), 1.0 / (1.0 + rb.rho * r**2) ** 4)
    # a 4-node radial rule
    exact = mass_integral_exact(rb, 10.0)
    assert abs(mass_integral(rb, 10.0, n_r=4) - exact) <= 1e-3 * exact


def test_mass_limit_value():
    rb = RescaledBubble(1.0)
    assert abs(mass_integral(rb, 1e6) - MASS_LIMIT) < 1e-4
    assert abs(MASS_LIMIT - 16.0 * np.pi**2) == 0.0


def test_weighted_sup_norm_cases():
    b = BubbleParams(p=(0.0, 0.0, 0.0, 0.0), eps=0.01, H=1.0)
    tau, delta = 0.5, 1.0

    exact = lambda pts: bubble_eval(b, np.linalg.norm(np.atleast_2d(pts), axis=1))
    outer, core = weighted_sup_norm(exact, b, tau, delta, rng=0)
    assert outer < 1e-12 and core < 1e-12

    a = 0.7
    perturbed = lambda pts: exact(pts) + a * np.linalg.norm(np.atleast_2d(pts), axis=1) ** tau
    outer, _ = weighted_sup_norm(perturbed, b, tau, delta, n=4000, rng=0)
    assert abs(outer - a) / a < 0.02

    c = 0.2
    shifted = lambda pts: exact(pts) + c
    outer, _ = weighted_sup_norm(shifted, b, tau, delta, rng=0)
    # a constant offset saturates at the exclusion radius: c * eps^{-tau}
    assert abs(outer - c * b.eps**-tau) / (c * b.eps**-tau) < 0.05

    with pytest.raises(ValueError):
        weighted_sup_norm(exact, b, 1.5, delta)
