import numpy as np
import pytest

from qcurv.bubble import (
    MASS_LIMIT,
    RHO0,
    BubbleParams,
    KernelElement,
    RescaledBubble,
    bubble_eval,
    bubble_pde_residual,
    linearized_residual,
    mass_integral,
    mass_integral_exact,
    rescaling_identity_gap,
    weighted_sup_norm,
)


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
    rb = RescaledBubble(1.3)
    r = np.linspace(0.1, 20.0, 50)
    h = 1e-6
    d1_fd = (rb.val_r(r + h) - rb.val_r(r - h)) / (2 * h)
    assert np.max(np.abs(d1_fd - rb.d1(r))) < 1e-8
    lap_expected = rb.d2(r) + 3.0 * rb.d1(r) / r
    assert np.max(np.abs(lap_expected - rb.lap(r))) < 1e-12
    dlap_fd = (rb.lap(r + h) - rb.lap(r - h)) / (2 * h)
    assert np.max(np.abs(dlap_fd - rb.dlap_dr(r))) < 1e-7


def test_kernel_elements_identity():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-50, 50, (2000, 4))
    for j in range(5):
        res = linearized_residual(KernelElement(j), pts)
        assert np.max(np.abs(res)) < 1e-8


def test_kernel_origin_values():
    k0 = KernelElement(0)
    z = np.zeros((1, 4))
    assert abs(k0.val(z)[0] - 1.0) < 1e-15
    assert abs(k0.bilap(z)[0] - 8.0) < 1e-13
    k1 = KernelElement(1)
    assert k1.val(z)[0] == 0.0
    assert k1.bilap(z)[0] == 0.0
    with pytest.raises(ValueError):
        KernelElement(5)


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
