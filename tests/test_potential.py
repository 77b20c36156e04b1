import tracemalloc

import numpy as np
import pytest
import scipy.fft as sfft

from qcurv import potential
from qcurv.potential import (
    LOG_COEFF,
    TorusSpectralField,
    fit_log_singularity,
    green_grid_values,
    green_pair_value,
    regular_part_field,
    representation_check,
)

L = 2.0 * np.pi


def test_green_zero_mean_and_size_validation():
    grid = green_grid_values(16, L)
    assert abs(grid.mean()) < 1e-15 * np.max(np.abs(grid))
    with pytest.raises(ValueError):
        green_grid_values(8, L)
    with pytest.raises(ValueError):
        green_grid_values(17, L)


def test_single_mode_representation_exact():
    f = TorusSpectralField(L, cos={(1, 0, 0, 0): 0.8})
    assert representation_check(f, 16) < 1e-12


def test_representation_random_fields():
    rng = np.random.default_rng(1)
    for _ in range(10):
        modes = {}
        for _ in range(10):
            k = tuple(int(v) for v in rng.integers(-3, 4, 4))
            if k == (0, 0, 0, 0):
                k = (2, 0, 0, 0)
            modes[k] = float(rng.uniform(-1, 1))
        f = TorusSpectralField(L, cos=modes, sin={k: -a for k, a in modes.items()})
        assert representation_check(f, 16) < 1e-9


def test_constant_field_representation_trivial():
    f = TorusSpectralField(L, cos={(0, 0, 0, 0): 3.0})
    assert representation_check(f, 16) < 1e-12


def test_green_symmetry_random_pairs():
    rng = np.random.default_rng(2)
    for _ in range(20):
        xi = rng.uniform(0, L, 4)
        eta = rng.uniform(0, L, 4)
        gap = abs(green_pair_value(16, L, xi, eta) - green_pair_value(16, L, eta, xi))
        assert gap < 1e-10


@pytest.mark.parametrize("N", [16, 32])
def test_green_pair_value_matches_irfftn_grid(N):
    # two independent paths: the separable mode sum at a grid-aligned
    # separation against the irfftn grid; symmetry alone cannot tell them apart
    grid = green_grid_values(N, L)
    tol = 1e-13 * np.max(np.abs(grid))
    xi = np.random.default_rng(3).uniform(0, L, 4)
    for h in ((1, 0, 0, 0), (0, 0, 0, 1), (2, -3, 1, 5), (-1, 4, -6, 3), (N // 2, 1, N // 2, N // 2)):
        h = np.array(h)
        val = green_pair_value(N, L, xi, xi + h * (L / N))
        assert abs(val - grid[tuple(h % N)]) < tol


def test_log_fit_memory_guard():
    # one default fit and one pair at N = 64 from a cold multiplier cache;
    # N^4 coordinate grids for either would trace about 1 GB
    potential._multiplier.cache_clear()
    tracemalloc.start()
    try:
        fit_log_singularity(64, L)
        green_pair_value(64, L, np.zeros(4), np.full(4, 0.3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 300 * 2**20


def test_log_fit_default_matches_grid_path():
    N = 48
    dec = fit_log_singularity(N, L)
    ref = fit_log_singularity(N, L, grid=green_grid_values(N, L))
    assert dec.n_points == ref.n_points
    assert abs(dec.c_log - ref.c_log) < 1e-12 * abs(ref.c_log)
    assert abs(dec.rms - ref.rms) < 1e-12 * ref.rms


def test_log_fit_recovers_coefficient():
    dec = fit_log_singularity(64, L)
    assert abs(dec.c_log - LOG_COEFF) / abs(LOG_COEFF) < 0.02
    assert dec.rms < abs(LOG_COEFF)
    assert dec.n_points > 100


def test_log_fit_improves_with_resolution():
    e48 = abs(fit_log_singularity(48, L).c_log - LOG_COEFF)
    e64 = abs(fit_log_singularity(64, L).c_log - LOG_COEFF)
    assert e64 < e48


def test_second_order_green_rejected_by_fit():
    # negative control: the second-order Green's function has an r^-2
    # singularity, so the log-basis fit must land far from the target
    N = 48
    k = sfft.fftfreq(N, d=1.0 / N)
    kr = sfft.rfftfreq(N, d=1.0 / N)
    k2 = k**2
    ksq = (
        k2[:, None, None, None]
        + k2[None, :, None, None]
        + k2[None, None, :, None]
        + (kr**2)[None, None, None, :]
    ) * (2.0 * np.pi / L) ** 2
    with np.errstate(divide="ignore"):
        mult = 1.0 / (L**4 * ksq)
    mult[0, 0, 0, 0] = 0.0
    grid = sfft.irfftn(mult * N**4, s=(N,) * 4)
    dec = fit_log_singularity(N, L, grid=grid)
    assert abs(dec.c_log - LOG_COEFF) / abs(LOG_COEFF) > 0.5


def test_regular_part_field_cases():
    const = TorusSpectralField(L, cos={(0, 0, 0, 0): 5.0})
    grid = np.random.default_rng(4).uniform(0, L, (50, 4))
    assert np.max(np.abs(regular_part_field(const).jet(grid, 0)[0])) < 1e-14

    b = TorusSpectralField(L, cos={(1, 0, 0, 0): 1.0})
    phi = regular_part_field(b)
    # multiplier 2 / |2 pi k / L|^4 = 2 at |k| = 1, L = 2 pi
    (val,) = phi.jet(np.array([[0.0, 0, 0, 0], [np.pi, 0, 0, 0]]), 0)
    assert abs(val[0] - 2.0) < 1e-12
    assert abs(val[1] + 2.0) < 1e-12


def test_regular_part_of_sine_modes():
    # sin(x0 + x1) has |2 pi k / L|^4 = 4 (multiplier 1/2), sin(2 x2) 16 (1/8)
    b = TorusSpectralField(L, cos={(0, 0, 0, 0): 3.0}, sin={(1, 1, 0, 0): 0.6, (0, 0, 2, 0): -0.4})
    phi = regular_part_field(b)
    assert phi.cos == {} and phi.sin == {(1, 1, 0, 0): 0.3, (0, 0, 2, 0): -0.05}
    x = np.random.default_rng(5).uniform(0, L, (20, 4))
    want = 0.3 * np.sin(x[:, 0] + x[:, 1]) - 0.05 * np.sin(2 * x[:, 2])
    assert np.max(np.abs(phi.jet(x, 0)[0] - want)) < 1e-14


def test_constant_field_has_zero_gradient():
    f = TorusSpectralField(L, cos={(0, 0, 0, 0): 2.5})
    x = np.random.default_rng(6).uniform(0, L, (20, 4))
    val, grad = f.jet(x, 1)
    assert np.array_equal(val, np.full(20, 2.5))
    assert np.array_equal(grad, np.zeros((20, 4)))


def test_sine_mode_gradient_at_origin():
    # d/dx of b sin(2 pi k.x / L) at 0 is b 2 pi k / L; cosines add nothing there
    f = TorusSpectralField(3.0, cos={(1, 2, 0, 0): 0.7}, sin={(1, 0, -1, 2): 0.4})
    grad = f.jet(np.zeros(4), 1)[1]
    assert np.max(np.abs(grad[0] - 0.4 * 2.0 * np.pi / 3.0 * np.array([1, 0, -1, 2]))) < 1e-15


def test_torus_jet_orders():
    f = TorusSpectralField(3.0, cos={(0, 0, 0, 0): 1.5, (1, 2, 0, 0): 0.7}, sin={(1, 0, -1, 2): 0.4})
    x = np.random.default_rng(8).uniform(0, 3.0, (6, 4))
    (val,) = f.jet(x, 0)
    val1, grad = f.jet(x, 1)
    assert val.shape == (6,) and grad.shape == (6, 4)
    assert np.array_equal(val, val1)
    with pytest.raises(ValueError, match="up to order 1"):
        f.jet(x, 2)


def test_sum_and_scalar_multiple_match_mode_sums():
    f = TorusSpectralField(L, cos={(0, 0, 0, 0): 1.0, (1, 0, 0, 0): 0.5}, sin={(0, 1, 1, 0): 0.2})
    g = TorusSpectralField(L, cos={(1, 0, 0, 0): -0.25}, sin={(0, 0, 0, 3): 0.1})
    x = np.random.default_rng(7).uniform(0, L, (30, 4))
    s = f + (-2.0) * g
    assert s.cos == {(0, 0, 0, 0): 1.0, (1, 0, 0, 0): 1.0}
    assert s.sin == {(0, 1, 1, 0): 0.2, (0, 0, 0, 3): -0.2}
    want = 1.0 + np.cos(x[:, 0]) + 0.2 * np.sin(x[:, 1] + x[:, 2]) - 0.2 * np.sin(3 * x[:, 3])
    val, sgrad = s.jet(x, 1)
    assert np.max(np.abs(val - want)) < 1e-14
    grad = np.stack(
        [-np.sin(x[:, 0]), 0.2 * np.cos(x[:, 1] + x[:, 2]), 0.2 * np.cos(x[:, 1] + x[:, 2]),
         -0.6 * np.cos(3 * x[:, 3])],
        axis=1,
    )
    assert np.max(np.abs(sgrad - grad)) < 1e-14
    with pytest.raises(ValueError):
        f + TorusSpectralField(3.0, cos={(0, 0, 0, 0): 1.0})
