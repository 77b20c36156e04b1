"""Synthetic concentration sequences and the estimate/rate check batteries.

True concentrating solution families are out of reach without an existence
solver, so the harness manufactures fields of exactly the predicted shape
(bubble plus a controlled smooth correction) and validates every estimate
on them: energy quantization, weighted sup-norm stability, long-range ring
asymptotics, and the gradient-balance rate at the concentration point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bubble import (
    H_FLOOR,
    MASS_LIMIT,
    BubbleParams,
    RescaledBubble,
    bubble_eval,
    mass_integral,
    weighted_sup_norm,
)
from .potential import TorusSpectralField, regular_part_field
from .quadrature import ball_rule

ORIGIN = (0.0, 0.0, 0.0, 0.0)
# outer radius of the weighted sup-norm's shell; the long-range ring's is DELTA1 / eps
DELTA1 = 0.5
# the polar rule of the corrected energy integrals
N_R, N_U, N_PHI = 64, 20, 20


@dataclass(frozen=True)
class SequenceConfig:
    """Parameters of a synthetic concentrating sequence at the origin."""

    eps_list: tuple
    H: float = 1.0
    amp: float = 0.0
    n_modes: int = 2
    tau: float = 0.5
    seed: int = 0

    def __post_init__(self):
        eps = tuple(float(e) for e in self.eps_list)
        object.__setattr__(self, "eps_list", eps)
        if not eps or any(e <= 0 for e in eps):
            raise ValueError("eps_list must contain positive values")
        if len(eps) > 1 and not all(b < a for a, b in zip(eps[:-1], eps[1:])):
            raise ValueError("eps_list must be strictly decreasing")
        if self.H < H_FLOOR:
            raise ValueError(f"H must be >= {H_FLOOR}")
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")
        if abs(self.amp) * max(self.n_modes, 1) > 10.0:
            raise ValueError("correction amplitude would overflow e^{4u} quadrature")


@dataclass
class SynthField:
    """u_eps = bubble profile + smooth cosine correction."""

    eps: float
    H: float
    amp: float
    wavevectors: np.ndarray = field(repr=False)

    @property
    def params(self):
        return BubbleParams(p=ORIGIN, eps=self.eps, H=self.H)

    def correction(self, pts):
        """amp * sum_k (cos(k.xi) - 1): vanishes with its gradient at 0,
        the normalization the weighted estimates require of corrections."""
        pts = np.atleast_2d(np.asarray(pts, float))
        if self.amp == 0.0 or len(self.wavevectors) == 0:
            return np.zeros(pts.shape[0])
        return self.amp * np.sum(np.cos(pts @ self.wavevectors.T) - 1.0, axis=1)

    def __call__(self, pts):
        pts = np.atleast_2d(np.asarray(pts, float))
        d = np.linalg.norm(pts, axis=1)
        return bubble_eval(self.params, d) + self.correction(pts)


def synth_sequence(cfg: SequenceConfig):
    """Deterministic list of SynthField, one per eps (shared correction)."""
    rng = np.random.default_rng(cfg.seed)
    if cfg.amp != 0.0 and cfg.n_modes > 0:
        waves = rng.integers(-3, 4, size=(cfg.n_modes, 4)).astype(float)
        waves[np.all(waves == 0, axis=1)] = np.array([1.0, 0.0, 0.0, 0.0])
    else:
        waves = np.zeros((0, 4))
    return [SynthField(eps=e, H=cfg.H, amp=cfg.amp, wavevectors=waves) for e in cfg.eps_list]


def big_l(eps):
    """L = -log eps."""
    return -np.log(eps)


def _alpha_of_field(f: SynthField, n_r):
    """alpha = 2 H int_{B_l} e^{4u} dxi, computed in rescaled coordinates."""
    L = big_l(f.eps)
    rb = RescaledBubble(H=f.H)
    if f.amp == 0.0:
        return mass_integral(rb, L, n_r=n_r)
    pts, w = ball_rule(L, n_r=n_r, n_u=N_U, n_phi=N_PHI)
    vals = rb.exp4u(pts) * np.exp(4.0 * f.correction(f.eps * pts))
    return 2.0 * f.H * float(np.sum(w * vals))


def alpha_sweep(seq):
    """Energy rows alpha(eps) and the log-log slope of |alpha - 16 pi^2| in L.

    For zero correction the deviation is a pure bubble tail, a power law
    in L much faster than the 1/L the generic theory allows.
    """
    rows = []
    for f in seq:
        a = _alpha_of_field(f, N_R)
        a_half = _alpha_of_field(f, N_R // 2)
        rows.append(
            {
                "eps": f.eps,
                "L": float(big_l(f.eps)),
                "alpha": a,
                "gap": a - MASS_LIMIT,
                "rel_gap": (a - MASS_LIMIT) / MASS_LIMIT,
                "error_estimate": abs(a - a_half),
            }
        )
    Ls = np.array([r["L"] for r in rows])
    gaps = np.array([abs(r["gap"]) for r in rows])
    summary = {"rows": rows}
    if len(rows) >= 2 and np.all(gaps > 0):
        summary["tail_log_slope"] = float(np.polyfit(np.log(Ls), np.log(gaps), 1)[0])
    return summary


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


def mainest_fit(seq, cfg: SequenceConfig, n=2000):
    """tau-weighted sup-norm per eps and the spread ``ratio`` = max/min.

    The sampled sups are only lower bounds; each row's
    ``sampling_error_estimate`` and ``core_sampling_error_estimate`` are
    their changes when the samples are doubled, |outer(2n) - outer(n)| and
    |core(2n) - core(n)|.
    """
    rows = []
    for f in seq:
        outer, core = weighted_sup_norm(f, f.params, cfg.tau, DELTA1, n=n, rng=cfg.seed)
        outer2, core2 = weighted_sup_norm(f, f.params, cfg.tau, DELTA1, n=2 * n, rng=cfg.seed)
        rows.append({"eps": f.eps, "outer_norm": outer, "core_norm": core,
                     "sampling_error_estimate": abs(outer2 - outer),
                     "core_sampling_error_estimate": abs(core2 - core)})
    cs = np.array([max(r["outer_norm"], 1e-12) for r in rows])
    return {"rows": rows, "ratio": float(np.max(cs) / np.min(cs))}


def vrate_balance(h: TorusSpectralField, b: TorusSpectralField, q=ORIGIN):
    """The gradient balance grad h / h + 4 grad phi at the placement point.

    phi is the regular-part potential of b on the torus; a concentration
    point must annihilate this vector.  Single placement only.
    """
    q = np.asarray(q, float)
    hq = float(h.eval(q[None, :])[0])
    if hq <= 0:
        raise ValueError("h must be positive at the placement point")
    phi = regular_part_field(b)
    return h.gradient(q[None, :])[0] / hq + 4.0 * phi.gradient(q[None, :])[0]


def tuned_source(h: TorusSpectralField, q=ORIGIN):
    """A source b whose regular part exactly balances grad h / h at q.

    Uses one lowest-frequency mode per axis, b = sum_a amp_a
    sin(2 pi (x_a - q_a) / L), written as sine plus cosine modes; its regular
    part is 2 (L / 2 pi)^4 b, so 4 grad phi(q) = -grad h(q) / h(q).
    """
    q = np.asarray(q, float)
    hq = float(h.eval(q[None, :])[0])
    target = -h.gradient(q[None, :])[0] / hq  # required 4*grad phi
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
