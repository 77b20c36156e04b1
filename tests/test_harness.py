import numpy as np
import pytest

from qcurv.bubble import MASS_LIMIT, RescaledBubble, mass_integral, mass_integral_exact
from qcurv.harness import (
    DELTA1,
    N_MODES,
    ORIGIN,
    SynthField,
    alpha_sweep,
    big_l,
    long_range_checks,
    mainest_fit,
    tuned_source,
    vrate_balance,
    weighted_sup_norm,
    vrate_rate_fit,
)
from qcurv.potential import TorusSpectralField

L_TORUS = 2.0 * np.pi


def test_scales():
    assert abs(big_l(np.exp(-3.0)) - 3.0) < 1e-14


def test_synth_field_correction_vanishes_with_gradient_at_origin():
    waves = np.array([[1.0, -2.0, 0.0, 3.0], [0.0, 1.0, 1.0, -1.0], [2.0, 0.0, -3.0, 0.0]])
    f = SynthField(eps=0.1, amp=0.05, wavevectors=waves)
    assert abs(f.correction(np.zeros((1, 4)))[0]) < 1e-15
    h = 1e-6
    for a in range(4):
        e = np.zeros((1, 4))
        e[0, a] = h
        fd = (f.correction(e)[0] - f.correction(-e)[0]) / (2 * h)
        assert abs(fd) < 1e-8
    # away from the origin the correction is there, and u is bubble plus it
    x = np.array([[0.3, 0.1, -0.2, 0.4]])
    assert abs(f.correction(x)[0]) > 1e-3
    bubble = SynthField(eps=0.1, amp=0.0, wavevectors=waves)
    assert f(x)[0] == bubble(x)[0] + f.correction(x)[0]


def test_alpha_sweep_pure_bubble_tail():
    out = alpha_sweep((1e-2, 1e-3, 1e-4), 1.0)
    rows = out["rows"]
    assert len(rows) == 3
    for r in rows:
        assert r["alpha"] < MASS_LIMIT
        assert r["error_estimate"] < 1e-8
    gaps = [abs(r["gap"]) for r in rows]
    assert all(b < a for a, b in zip(gaps[:-1], gaps[1:]))
    # the deviation is a bubble tail, far faster than 1/L
    assert out["tail_log_slope"] < -1.0
    assert out["tail_log_slope"] < -1.5


@pytest.mark.parametrize("H", [1.0, 0.5])
def test_alpha_sweep_rows_are_the_bubble_mass_on_b_l(H):
    eps_list = (1e-2, 1e-3, 1e-5)
    rb = RescaledBubble(H=H)
    for eps, r in zip(eps_list, alpha_sweep(eps_list, H)["rows"]):
        L = -np.log(eps)
        a = mass_integral(rb, L)
        assert (r["eps"], r["L"], r["alpha"]) == (eps, L, a)
        assert r["gap"] == a - MASS_LIMIT
        # the gap to the closed form criterion 3 asserts; never a vacuous 0
        assert r["error_estimate"] == abs(a - mass_integral_exact(rb, L)) > 0.0


def test_long_range_checks_on_exact_bubble():
    from qcurv.bubble import RescaledBubble

    eps = 1e-4
    out = long_range_checks(RescaledBubble(1.0), eps)
    names = {c["name"]: c for c in out}
    a8 = MASS_LIMIT / (8.0 * np.pi**2)  # = 2
    assert abs(names["slope_v_vs_logr"]["value"] + a8) / a8 < 0.01
    assert abs(names["dr_v_times_L"]["value"] + a8) / a8 < 0.1
    assert abs(names["lap_v_times_L2"]["value"] + 2 * a8) / (2 * a8) < 0.01
    assert abs(names["dr_lap_v_times_L3"]["value"] - 4 * a8) / (4 * a8) < 0.02
    # the next-order correction enters at O(1/L): gap * L stays bounded
    for c in out:
        assert abs(c["gap_times_L"]) < 10.0


def test_mainest_fit_verdicts():
    eps_list = (1e-2, 1e-3, 1e-4)
    out0 = mainest_fit(eps_list, 0.0, 0.5, 0, n=1000)
    assert out0["ratio"] <= 3.0
    for r in out0["rows"]:
        assert r["outer_norm"] < 1e-10

    out = mainest_fit(eps_list, 0.02, 0.5, 3, n=1000)
    assert out["ratio"] <= 3.0
    assert out["ratio"] < 3.0
    assert min(r["outer_norm"] for r in out["rows"]) > 1e-4


def _mainest_field(eps, amp, seed):
    """The field mainest_fit draws: N_MODES integer wave vectors in [-3, 3]
    from default_rng(seed), a zero row replaced by e_1."""
    waves = np.random.default_rng(seed).integers(-3, 4, size=(N_MODES, 4)).astype(float)
    waves[np.all(waves == 0, axis=1)] = [1.0, 0.0, 0.0, 0.0]
    return SynthField(eps=eps, amp=amp, wavevectors=waves)


def test_mainest_error_columns_are_sample_doubling_changes():
    seed, tau = 1, 0.5
    out = mainest_fit((1e-2, 1e-3), 0.02, tau, seed, n=500)
    for r in out["rows"]:
        f = _mainest_field(r["eps"], 0.02, seed)
        outer, core = weighted_sup_norm(f, f.params, tau, DELTA1, n=500, rng=seed)
        outer2, core2 = weighted_sup_norm(f, f.params, tau, DELTA1, n=1000, rng=seed)
        assert (r["outer_norm"], r["core_norm"]) == (outer, core)
        assert r["sampling_error_estimate"] == abs(outer2 - r["outer_norm"])
        assert r["core_sampling_error_estimate"] == abs(core2 - r["core_norm"]) > 0.0


def test_vrate_balance_tuned_source_annihilates():
    # the zero mode 2 keeps h > 0 everywhere
    h = TorusSpectralField(
        L_TORUS, cos={(0, 0, 0, 0): 2.0, (1, 0, 0, 0): 0.3, (0, 1, 1, 0): -0.2}
    )

    q = np.array([0.7, 1.3, 0.2, 2.1])
    b = tuned_source(h, q)
    assert np.max(np.abs(vrate_balance(h, b, q))) < 1e-12

    # an untuned source leaves a finite imbalance
    b_off = TorusSpectralField(L_TORUS, sin={(1, 0, 0, 0): 0.5})
    assert np.max(np.abs(vrate_balance(h, b_off, q))) > 1e-3


def test_vrate_balance_requires_positive_h():
    h = TorusSpectralField(L_TORUS, cos={(1, 0, 0, 0): 1.0})
    b = TorusSpectralField(L_TORUS, sin={(1, 0, 0, 0): 0.1})
    with pytest.raises(ValueError):
        vrate_balance(h, b, np.array([np.pi, 0.0, 0.0, 0.0]))


def test_vrate_balance_cases():
    def const(v):
        return TorusSpectralField(L_TORUS, cos={(0, 0, 0, 0): v})

    # constant h and a constant source (no regular part): exactly zero
    for q in (ORIGIN, (0.7, 1.3, 0.2, 2.1)):
        assert np.max(np.abs(vrate_balance(const(2.0), const(1.0), q))) == 0.0

    # balanced pair at the origin: grad(h)/h = -4 grad(phi), to rounding
    h = const(2.0) + TorusSpectralField(
        L_TORUS, sin={(1, 0, 0, 0): 0.4, (0, 1, 0, 0): -0.2, (0, 0, 1, 0): 0.1, (0, 0, 0, 1): 0.3}
    )
    assert np.max(np.abs(h.jet(np.zeros((1, 4)), 1)[1])) > 0.1
    assert np.max(np.abs(vrate_balance(h, tuned_source(h)))) < 1e-14

    for v in (-1.0, 0.0):
        with pytest.raises(ValueError):
            vrate_balance(const(v), const(1.0))


def test_vrate_rate_fit_returns_half_tau():
    base = TorusSpectralField(L_TORUS, cos={(0, 0, 0, 0): 2.0})
    h = base + TorusSpectralField(L_TORUS, cos={(1, 0, 0, 0): 0.3})
    q = np.array([0.5, 0.0, 0.0, 0.0])
    b_tuned = tuned_source(h, q)
    b_off = TorusSpectralField(L_TORUS, sin={(0, 1, 0, 0): 0.4})
    tau = 0.5
    out = vrate_rate_fit(h, b_tuned, b_off, [1e-2, 1e-3, 1e-4], tau, q)
    assert abs(out["exponent"] - tau / 2.0) < 1e-6

    # a cosine offset has zero gradient at the origin and must be rejected
    b_cos = TorusSpectralField(L_TORUS, cos={(0, 1, 0, 0): 0.4})
    b0 = tuned_source(base)
    with pytest.raises(ValueError):
        vrate_rate_fit(base, b0, b_cos, [1e-2, 1e-3], tau)
