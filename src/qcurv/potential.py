"""The biharmonic Green's function of the flat torus.

Real fields are trigonometric polynomials stored as their cos and sin
modes; the Green's function is exact in the truncated spectral space with
multiplier 1 / (L^4 |2 pi k / L|^4), built once per (N, L) on the rfft half
spectrum; point values come from a separable mode sum over its four axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy import fft


# ---------------------------------------------------------------------------
# torus spectral fields


class TorusSpectralField:
    """Real trigonometric polynomial on the torus [0, L)^4,

        f(x) = sum_k cos[k] cos(2 pi k.x / L) + sin[k] sin(2 pi k.x / L),

    over integer wave vectors k; ``cos[(0, 0, 0, 0)]`` is the mean."""

    def __init__(self, L, cos=None, sin=None):
        self.L = float(L)
        self.cos = {tuple(int(v) for v in k): float(a) for k, a in (cos or {}).items()}
        self.sin = {tuple(int(v) for v in k): float(a) for k, a in (sin or {}).items()}

    def _phases(self, pts):
        """(2 pi k.x / L at pts (m, 4), k (n, 4), amplitudes) for the cos, then the sin modes."""
        pts = np.atleast_2d(np.asarray(pts, float))
        out = []
        for modes in (self.cos, self.sin):
            ks = np.array(list(modes), float).reshape(-1, 4)
            out.append((2.0 * np.pi / self.L * pts @ ks.T, ks, np.array(list(modes.values()))))
        return out

    def jet(self, pts, order):
        """``[values (m,), gradients (m, 4)]`` up to ``order`` at points (m, 4);
        orders above 1 raise ``ValueError``."""
        if order > 1:
            raise ValueError("torus field jets available up to order 1")
        (pc, kc, a), (ps, ks, b) = self._phases(pts)
        jets = [np.cos(pc) @ a + np.sin(ps) @ b]
        if order == 1:
            dcos = -np.sin(pc) @ (a[:, None] * kc)
            jets.append(2.0 * np.pi / self.L * (np.cos(ps) @ (b[:, None] * ks) + dcos))
        return jets

    def __add__(self, other):
        if other.L != self.L:
            raise ValueError("fields live on tori of different sizes")

        def merged(p, q):
            return {k: p.get(k, 0.0) + q.get(k, 0.0) for k in {**p, **q}}

        return TorusSpectralField(self.L, merged(self.cos, other.cos), merged(self.sin, other.sin))

    def __rmul__(self, s):
        return TorusSpectralField(
            self.L, {k: s * a for k, a in self.cos.items()}, {k: s * a for k, a in self.sin.items()}
        )


@lru_cache
def _multiplier(N, L):
    """Read-only multiplier 1 / (L^4 |2 pi k / L|^4) on the rfft half, k = 0 -> 0."""
    if N < 16 or N % 2:
        raise ValueError("N must be even and >= 16")
    k2 = fft.fftfreq(N, d=1.0 / N) ** 2
    m = (
        k2[:, None, None, None]
        + k2[None, :, None, None]
        + k2[None, None, :, None]
        + (fft.rfftfreq(N, d=1.0 / N) ** 2)[None, None, None, :]
    )
    m *= (2.0 * np.pi / L) ** 2
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
    k = fft.fftfreq(N, d=1.0 / N)
    x0, x1, x2, x3 = (np.atleast_1d(np.asarray(a, float)) for a in axes)
    phase = w * np.outer(x3, fft.rfftfreq(N, d=1.0 / N))
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
    return fft.irfftn(_multiplier(N, L), s=(N,) * 4, axes=(0, 1, 2, 3), norm="forward")


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


def fit_log_singularity(N, L, grid=None) -> GreenDecomposition:
    """Least-squares split G = c_log * log r + smooth near the source.

    Fits over grid points with minimum-image radius in the window
    [4L/N, L/8] against the basis {log r, 1, x_a, r^2}.  The window is
    empty for N < 32: the fit then runs on no points and returns c_log = 0
    and rms = nan, with numpy's empty-mean warnings.
    """
    window = (4.0 * L / N, L / 8.0)
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
        fit_window=window,
        rms=float(np.sqrt(np.mean(resid**2))),
        n_points=int(mask.sum()),
    )


def representation_check(f: TorusSpectralField, N):
    """Max deviation of f(xi) - fbar - int G(xi,.) Delta^2 f over the N^4 grid.

    Delta^2 multiplies the coefficient c_k of e^{2 pi i k.x / L} by
    |2 pi k / L|^4 and convolving with G by L^4 times G's multiplier, which
    is even in each k_a and so read at |k_3| on the rfft half; the gaps from
    c_k of the modes k != 0 are summed onto the grid by one inverse FFT.
    """
    c = np.zeros((N,) * 4, complex)
    # a cos(k.x) = a/2 (e^{ik.x} + e^{-ik.x}), a sin(k.x) = a/2i (e^{ik.x} - e^{-ik.x})
    for modes, at_k, at_minus_k in ((f.cos, 0.5, 0.5), (f.sin, -0.5j, 0.5j)):
        for k, a in modes.items():
            c[tuple(np.mod(k, N))] += at_k * a
            c[tuple(np.mod(np.negative(k), N))] += at_minus_k * a
    c[0, 0, 0, 0] = 0.0
    idx = np.nonzero(c)
    freq = fft.fftfreq(N, d=1.0 / N)
    ksq = sum(freq[i] ** 2 for i in idx) * (2.0 * np.pi / f.L) ** 2
    green = _multiplier(N, f.L)[idx[:3] + (np.minimum(idx[3], N - idx[3]),)]
    amp = c[idx]
    c[idx] = amp * ksq**2 * f.L**4 * green - amp
    return float(np.max(np.abs(fft.ifftn(c) * c.size)))


def regular_part_field(b: TorusSpectralField) -> TorusSpectralField:
    """phi = 2 int G(.,eta) b(eta) dV: each mode k != 0 scaled by 2/|2 pi k/L|^4."""
    w2 = (2.0 * np.pi / b.L) ** 2

    def scaled(modes):
        return {k: 2.0 * a / (sum(v * v for v in k) * w2) ** 2 for k, a in modes.items() if any(k)}

    return TorusSpectralField(b.L, scaled(b.cos), scaled(b.sin))
