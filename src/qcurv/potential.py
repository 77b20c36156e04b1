"""Fundamental solutions and Green's functions.

Torus side: zero-mean periodic fields stored as full FFT coefficient
arrays (numpy ``fftn`` layout, f(x) = sum_k c_k e^{2 pi i k.x / L}); the
biharmonic Green's function is exact in the truncated spectral space with
multiplier 1 / (L^4 |2 pi k / L|^4), built once per (N, L) on the rfft half
spectrum; point values come from a separable mode sum over its four axes.

R^4 side: the log-potential v(x) = (1/4 pi^2) int log(|y|/|x-y|) rho(y) dy
of a radial density, with the angular integral in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import fft as sfft

from .quadrature import gauss_legendre


# ---------------------------------------------------------------------------
# torus spectral fields


class TorusSpectralField:
    """Real periodic scalar field on [0, L)^4 as Fourier coefficients."""

    def __init__(self, L, coeffs):
        self.L = float(L)
        self.coeffs = np.asarray(coeffs, complex)
        if self.coeffs.ndim != 4:
            raise ValueError("coefficient array must be 4-dimensional")
        self.N = self.coeffs.shape[0]
        if any(s != self.N for s in self.coeffs.shape):
            raise ValueError("coefficient array must be N^4")
        if self.N % 2 != 0:
            raise ValueError("N must be even")
        v = self.grid_values()
        if np.max(np.abs(v.imag)) > 1e-10 * max(1.0, np.max(np.abs(v.real))):
            raise ValueError("coefficients violate conjugate symmetry")

    @classmethod
    def from_modes(cls, L, N, modes):
        """``modes``: dict mapping integer wave vectors k to amplitudes of
        cos terms; builds sum_k a_k cos(2 pi k.x / L) (manifestly real)."""
        c = np.zeros((N,) * 4, complex)
        for k, a in modes.items():
            k = tuple(int(v) % N for v in k)
            kneg = tuple((-int(v)) % N for v in k)
            c[k] += a / 2.0
            c[kneg] += a / 2.0
        return cls(L, c)

    def ksq(self):
        return _ksq(self.N, self.L)

    def grid_values(self):
        return sfft.ifftn(self.coeffs) * self.coeffs.size

    def values(self):
        return self.grid_values().real

    def _waves(self, pts):
        """e^{2 pi i k.x / L} of the nonzero modes at pts (m, 4), with k and c_k."""
        pts = np.atleast_2d(np.asarray(pts, float))
        idx = np.nonzero(self.coeffs)
        ks = np.stack([sfft.fftfreq(self.N, d=1.0 / self.N)[i] for i in idx], axis=1)
        phase = 2.0 * np.pi / self.L * pts @ ks.T
        return np.exp(1j * phase), ks, self.coeffs[idx]

    def eval(self, pts):
        """Direct mode-sum evaluation at arbitrary points (m, 4)."""
        if np.count_nonzero(self.coeffs) > 20000:
            raise ValueError("direct evaluation only for sparse spectra")
        waves, _, amps = self._waves(pts)
        return (waves @ amps).real

    def gradient(self, pts):
        waves, ks, amps = self._waves(pts)
        fac = 1j * 2.0 * np.pi / self.L
        return np.stack([(waves @ (fac * ks[:, a] * amps)).real for a in range(4)], axis=1)


def _ksq(N, L, half=False):
    """|2 pi k / L|^2 on the fftfreq grid (N,)*4, or on its rfftfreq half."""
    k2 = sfft.fftfreq(N, d=1.0 / N) ** 2
    k3 = sfft.rfftfreq(N, d=1.0 / N) ** 2 if half else k2
    ksq = (
        k2[:, None, None, None]
        + k2[None, :, None, None]
        + k2[None, None, :, None]
        + k3[None, None, None, :]
    )
    ksq *= (2.0 * np.pi / L) ** 2
    return ksq


@lru_cache
def _multiplier(N, L):
    """Read-only multiplier 1 / (L^4 |2 pi k / L|^4) on the rfft half, k = 0 -> 0."""
    if N < 16 or N % 2:
        raise ValueError("N must be even and >= 16")
    m = _ksq(N, L, half=True)
    np.square(m, out=m)
    m *= L**4
    with np.errstate(divide="ignore"):
        np.divide(1.0, m, out=m)
    m[0, 0, 0, 0] = 0.0
    m.setflags(write=False)
    return m


def _green_on_product(N, L, axes):
    """G on the product of four 1-D coordinate sets, shape (n0, n1, n2, n3).

    The full fftfreq mode sum, one axis at a time: the half axis weighs the
    pair +-k by 2 cos(k x) and the lone Nyquist mode -N/2 by e^{-i (N/2) x}
    (the only complex row), the other three axes by e^{i k x}.
    """
    m = _multiplier(N, L)
    w = 2.0 * np.pi / L
    k = sfft.fftfreq(N, d=1.0 / N)
    x0, x1, x2, x3 = (np.atleast_1d(np.asarray(a, float)) for a in axes)
    phase = w * np.outer(x3, sfft.rfftfreq(N, d=1.0 / N))
    cos = np.cos(phase)
    cos[:, 1:-1] *= 2.0
    flat = m.reshape(-1, m.shape[-1])
    t = (cos @ flat.T).astype(complex)
    t.imag = np.outer(-np.sin(phase[:, -1]), flat[:, -1])
    t = t.reshape(-1, N) @ np.exp(1j * w * np.outer(k, x2))
    t = np.exp(1j * w * np.outer(x1, k)) @ t.reshape(-1, N, len(x2))
    t = np.exp(1j * w * np.outer(x0, k)) @ t.reshape(len(x3), N, -1)
    return t.real.reshape(len(x3), len(x0), len(x1), len(x2)).transpose(1, 2, 3, 0)


def green_grid_values(N, L):
    """Grid samples of G with source at the grid origin (memory-lean rfft)."""
    # "forward" leaves the inverse transform unscaled: the raw mode sum
    return sfft.irfftn(_multiplier(N, L), s=(N,) * 4, norm="forward")


def green_pair_value(N, L, xi, eta):
    """G(xi, eta) by direct mode sum over xi - eta."""
    d = np.asarray(xi, float) - np.asarray(eta, float)
    return float(_green_on_product(N, L, d[:, None])[0, 0, 0, 0])


@dataclass
class GreenDecomposition:
    c_log: float
    fit_window: tuple
    rms: float
    n_points: int


LOG_COEFF = -1.0 / (8.0 * np.pi**2)


def fit_log_singularity(N, L, grid=None, window=None) -> GreenDecomposition:
    """Least-squares split G = c_log * log r + smooth near the source.

    Fits over grid points with minimum-image radius in ``window``
    (default [4L/N, L/8]) against the basis {log r, 1, x_a, r^2}.
    """
    if window is None:
        window = (4.0 * L / N, L / 8.0)
    if window[0] < 2.0 * L / N:
        raise ValueError("fit window unresolved: r_min below 2 grid spacings")
    # r <= window[1] needs each |signed coordinate| <= window[1]: fit that sub-box
    coord = np.arange(N) * L / N
    signed = np.where(coord <= L / 2, coord, coord - L)
    idx = np.flatnonzero(np.abs(signed) <= window[1])
    s = signed[idx]
    if grid is None:
        box = _green_on_product(N, L, (s,) * 4)
    else:
        box = np.asarray(grid)[np.ix_(idx, idx, idx, idx)]
    X = [s.reshape([-1 if b == a else 1 for b in range(4)]) for a in range(4)]
    r = np.sqrt(sum(a**2 for a in X))
    mask = (r >= window[0]) & (r <= window[1])
    rr = r[mask]
    g = box[mask]
    cols = [np.log(rr), np.ones_like(rr)]
    cols += [np.broadcast_to(X[a], r.shape)[mask] for a in range(4)]
    cols.append(rr**2)
    A = np.stack(cols, axis=1)
    sol, *_ = np.linalg.lstsq(A, g, rcond=None)
    resid = g - A @ sol
    return GreenDecomposition(
        c_log=float(sol[0]),
        fit_window=tuple(window),
        rms=float(np.sqrt(np.mean(resid**2))),
        n_points=int(mask.sum()),
    )


def representation_check(f: TorusSpectralField):
    """Max grid deviation of f(xi) - fbar - int G(xi,.) Delta^2 f."""
    ksq = f.ksq()
    c = f.coeffs.copy()
    bilap = c * ksq**2
    with np.errstate(divide="ignore", invalid="ignore"):
        back = np.where(ksq > 0, bilap / ksq**2, 0.0)
    target = c.copy()
    target[0, 0, 0, 0] = 0.0
    gap = sfft.ifftn(back - target) * c.size
    return float(np.max(np.abs(gap)))


def regular_part_field(b: TorusSpectralField) -> TorusSpectralField:
    """phi = 2 int G(.,eta) b(eta) dV, i.e. multiplier 2/|2 pi k/L|^4."""
    ksq = b.ksq()
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(ksq > 0, 2.0 * b.coeffs / ksq**2, 0.0)
    return TorusSpectralField(b.L, c)


# ---------------------------------------------------------------------------
# R^4 log-potential


def radial_log_potential(rho_of_r, x_norm, r_cut, n_r=200):
    """Log-potential of a radial density, angular integral in closed form.

    Averaging the kernel over S^3 (Chebyshev/Gegenbauer expansion with the
    sin^2 weight) gives, with M = max(s, x), m = min(s, x):

        v(x)    = (1/2) int rho(s) s^3 [log s - log M - m^2/(4 M^2)] ds
        Dv(x)   = -(1/x^3) int_0^x rho s^3 [x^2 - s^2/2]/x^0 ... (see code)
        lap v   = - int rho(s) s^3 / M^2 ds
        d_r lap = (2/x^3) int_0^x rho(s) s^3 ds

    Returns a dict {v, dv, lap, dlap}; all four are 1-D quadratures, so
    they are accurate to near machine precision for smooth rho.
    """
    x = float(x_norm)

    def seg(a, b, f):
        if b <= a:
            return 0.0
        total = 0.0
        edges = np.unique(np.concatenate([
            np.geomspace(max(a, 1e-6), b, 8) if a < 1e-6 else np.linspace(a, b, 8),
            [a, b],
        ]))
        edges = edges[(edges >= a) & (edges <= b)]
        for lo, hi in zip(edges[:-1], edges[1:]):
            r, w = gauss_legendre(n_r // 4, lo, hi)
            total += float(np.sum(w * f(r)))
        return total

    rho = rho_of_r
    inner_mass = seg(0.0, min(x, r_cut), lambda s: rho(s) * s**3)
    v = 0.5 * (
        seg(0.0, min(x, r_cut), lambda s: rho(s) * s**3 * (np.log(np.maximum(s, 1e-300)) - np.log(x) - s**2 / (4 * x**2)))
        + seg(min(x, r_cut), r_cut, lambda s: rho(s) * s**3 * (-x**2 / (4 * s**2)))
    )
    dv = 0.5 * (
        seg(0.0, min(x, r_cut), lambda s: rho(s) * s**3 * (-1.0 / x + s**2 / (2 * x**3)))
        + seg(min(x, r_cut), r_cut, lambda s: rho(s) * s**3 * (-x / (2 * s**2)))
    )
    lap = -(
        seg(0.0, min(x, r_cut), lambda s: rho(s) * s**3) / x**2
        + seg(min(x, r_cut), r_cut, lambda s: rho(s) * s)
    )
    dlap = 2.0 * inner_mass / x**3
    return {"v": v, "dv": dv, "lap": lap, "dlap": dlap, "inner_mass": inner_mass}
