"""The blow-up profile's estimate and rate batteries.

True concentrating solution families are out of reach without an existence
solver, so each battery checks its estimate on a field of exactly the
predicted shape: energy quantization on the rescaled bubble itself,
the weighted sup-norm on the bubble plus a smooth correction
(``SynthField``), long-range ring asymptotics on a radial profile, and the
gradient-balance rate at the concentration point on torus fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bubble import (
    MASS_LIMIT,
    BubbleParams,
    RescaledBubble,
    bubble_eval,
    mass_integral,
    mass_integral_exact,
    weighted_sup_norm,
)
from .potential import TorusSpectralField, regular_part_field

ORIGIN = (0.0, 0.0, 0.0, 0.0)
# outer radius of the weighted sup-norm's shell; the long-range ring's is DELTA1 / eps
DELTA1 = 0.5
# wave vectors of mainest's correction
N_MODES = 2


@dataclass
class SynthField:
    """u_eps = unit-strength bubble profile + smooth cosine correction."""

    eps: float
    amp: float
    wavevectors: np.ndarray = field(repr=False)

    @property
    def params(self):
        return BubbleParams(p=ORIGIN, eps=self.eps, H=1.0)

    def correction(self, pts):
        """amp * sum_k (cos(k.xi) - 1): vanishes with its gradient at 0,
        the normalization the weighted estimates require of corrections."""
        pts = np.atleast_2d(np.asarray(pts, float))
        return self.amp * np.sum(np.cos(pts @ self.wavevectors.T) - 1.0, axis=1)

    def __call__(self, pts):
        pts = np.atleast_2d(np.asarray(pts, float))
        d = np.linalg.norm(pts, axis=1)
        return bubble_eval(self.params, d) + self.correction(pts)


def big_l(eps):
    """L = -log eps."""
    return -np.log(eps)


def alpha_sweep(eps_list, H):
    """Energy rows alpha(eps) = 2 H int_{B_L} e^{4U} of the rescaled bubble,
    L = -log eps, and the log-log slope of |alpha - 16 pi^2| in L.

    The deviation is a pure bubble tail, a power law in L much faster than
    the 1/L the generic theory allows.  The slope is nan for one row or a
    zero gap, which have no log-log fit.  Each row's ``error_estimate`` is
    the gap |alpha - mass_integral_exact(L)| of the quadrature to its
    closed form.
    """
    rb = RescaledBubble(H=H)
    rows = []
    for eps in eps_list:
        L = big_l(eps)
        a = mass_integral(rb, L)
        rows.append(
            {
                "eps": eps,
                "L": float(L),
                "alpha": a,
                "gap": a - MASS_LIMIT,
                "rel_gap": (a - MASS_LIMIT) / MASS_LIMIT,
                "error_estimate": abs(a - mass_integral_exact(rb, L)),
            }
        )
    Ls = np.array([r["L"] for r in rows])
    gaps = np.array([abs(r["gap"]) for r in rows])
    slope = np.nan
    if len(rows) >= 2 and np.all(gaps > 0):
        slope = float(np.polyfit(np.log(Ls), np.log(gaps), 1)[0])
    return {"rows": rows, "tail_log_slope": slope}


def long_range_checks(profile, eps):
    """Ring diagnostics of the rescaled field v at |y| = L = -log eps.

    ``profile`` exposes val_r, d1, lap, dlap_dr (radial closed forms, as
    RescaledBubble does).  Targets follow the far-field law v ~
    -(alpha/8 pi^2) log|y| with alpha = 16 pi^2; each row carries its gap
    |value - target| as ``error_estimate`` and the next-order O(1/L) gap
    scaled by L, so the band constant is visible.
    """
    L = float(big_l(eps))
    a8 = MASS_LIMIT / (8.0 * np.pi**2)
    r_out = max(DELTA1 / eps, 2.0 * L)
    slope = (profile.val_r(r_out) - profile.val_r(L)) / (np.log(r_out) - np.log(L))
    rings = [
        ("slope_v_vs_logr", float(slope), -a8),
        ("dr_v_times_L", float(profile.d1(L) * L), -a8),
        ("lap_v_times_L2", float(profile.lap(L) * L**2), -2.0 * a8),
        ("dr_lap_v_times_L3", float(profile.dlap_dr(L) * L**3), 4.0 * a8),
    ]
    return [
        {"name": name, "value": v, "target": t, "error_estimate": abs(v - t),
         "gap_times_L": (v - t) * L}
        for name, v, t in rings
    ]


def mainest_fit(eps_list, amp, tau, seed, n=2000):
    """tau-weighted sup-norm of u - U_eps per eps and the spread ``ratio`` =
    max/min.

    u is a ``SynthField`` of amplitude ``amp`` whose ``N_MODES`` integer wave
    vectors, shared by every eps, are drawn from ``default_rng(seed)``; the
    sup-norm's samples use the same seed.  The sampled sups are only lower
    bounds; each row's ``sampling_error_estimate`` and
    ``core_sampling_error_estimate`` are their changes when the samples are
    doubled, |outer(2n) - outer(n)| and |core(2n) - core(n)|.
    """
    waves = np.random.default_rng(seed).integers(-3, 4, size=(N_MODES, 4)).astype(float)
    waves[np.all(waves == 0, axis=1)] = np.array([1.0, 0.0, 0.0, 0.0])
    rows = []
    for eps in eps_list:
        f = SynthField(eps=eps, amp=amp, wavevectors=waves)
        outer, core = weighted_sup_norm(f, f.params, tau, DELTA1, n=n, rng=seed)
        outer2, core2 = weighted_sup_norm(f, f.params, tau, DELTA1, n=2 * n, rng=seed)
        rows.append({"eps": eps, "outer_norm": outer, "core_norm": core,
                     "sampling_error_estimate": abs(outer2 - outer),
                     "core_sampling_error_estimate": abs(core2 - core)})
    cs = np.array([max(r["outer_norm"], 1e-12) for r in rows])
    return {"rows": rows, "ratio": float(np.max(cs) / np.min(cs))}


def vrate_balance(h: TorusSpectralField, b: TorusSpectralField, q=ORIGIN):
    """The gradient balance grad h / h + 4 grad phi at the placement point.

    phi is the regular-part potential of b on the torus; a concentration
    point must annihilate this vector.  Single placement only.
    """
    q = np.asarray(q, float)[None, :]
    hv, hg = h.jet(q, 1)
    hq = float(hv[0])
    if hq <= 0:
        raise ValueError("h must be positive at the placement point")
    return hg[0] / hq + 4.0 * regular_part_field(b).jet(q, 1)[1][0]


def tuned_source(h: TorusSpectralField, q=ORIGIN):
    """A source b whose regular part exactly balances grad h / h at q.

    Uses one lowest-frequency mode per axis, b = sum_a amp_a
    sin(2 pi (x_a - q_a) / L), written as sine plus cosine modes; its regular
    part is 2 (L / 2 pi)^4 b, so 4 grad phi(q) = -grad h(q) / h(q).
    """
    q = np.asarray(q, float)
    hv, hg = h.jet(q[None, :], 1)
    target = -hg[0] / float(hv[0])  # required 4*grad phi
    kfac = 2.0 * np.pi / h.L
    mult = 2.0 / kfac**4  # regular-part multiplier at |k|=1
    amp = target / (4.0 * mult * kfac)
    phase = kfac * q
    units = [tuple(k) for k in np.eye(4, dtype=int)]
    return TorusSpectralField(
        h.L, cos=dict(zip(units, -amp * np.sin(phase))), sin=dict(zip(units, amp * np.cos(phase)))
    )


def vrate_rate_fit(h, b_tuned, b_off, eps_list, tau, q=ORIGIN):
    """Exponent fit of |balance| for b_eps = b_tuned + eps^{tau/2} b_off.

    The synthetic family realizes the predicted vanishing rate exactly, so
    the fitted exponent must return tau/2.  Returns the norms and the
    sources b_eps, each keyed by eps, and the exponent.
    """
    eps_list = [float(e) for e in eps_list]
    sources = [b_tuned + e ** (tau / 2.0) * b_off for e in eps_list]
    norms = [float(np.linalg.norm(vrate_balance(h, b, q))) for b in sources]
    if min(norms) <= 0.0:
        raise ValueError(
            "offset source has vanishing regular-part gradient at q; "
            "use a sine mode or move the placement point"
        )
    expo = float(np.polyfit(np.log(eps_list), np.log(norms), 1)[0])
    return {"norms": dict(zip(eps_list, norms)), "sources": dict(zip(eps_list, sources)),
            "exponent": expo}
