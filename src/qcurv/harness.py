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


@dataclass(frozen=True)
class SequenceConfig:
    """Parameters of a synthetic concentrating sequence at the origin."""

    eps_list: tuple
    H: float = 1.0
    amp: float = 0.0
    n_modes: int = 2
    delta1: float = 0.5
    tau: float = 0.5
    n_r: int = 64
    n_u: int = 20
    n_phi: int = 20
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


def _alpha_of_field(f: SynthField, cfg: SequenceConfig, n_r):
    """alpha = 2 H int_{B_l} e^{4u} dxi, computed in rescaled coordinates."""
    L = big_l(f.eps)
    rb = RescaledBubble(H=f.H)
    if f.amp == 0.0:
        return mass_integral(rb, L, n_r=n_r)
    pts, w = ball_rule(L, n_r=n_r, n_u=cfg.n_u, n_phi=cfg.n_phi)
    vals = rb.exp4u(pts) * np.exp(4.0 * f.correction(f.eps * pts))
    return 2.0 * f.H * float(np.sum(w * vals))


def alpha_sweep(seq, cfg: SequenceConfig):
    """Energy rows alpha(eps) with deviation fits against 1/L and log L.

    Reports both the linear-in-1/L fit the generic theory predicts and the
    log-log tail slope; for zero correction the deviation is a pure bubble
    tail (power law in L, much faster than 1/L) and the report flags it.
    """
    rows = []
    for f in seq:
        a = _alpha_of_field(f, cfg, cfg.n_r)
        a_half = _alpha_of_field(f, cfg, max(cfg.n_r // 2, 8))
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
        lin = np.polyfit(1.0 / Ls, gaps, 1)
        pred = np.polyval(lin, 1.0 / Ls)
        summary["one_over_L_slope"] = float(lin[0])
        summary["one_over_L_residual"] = float(np.max(np.abs(gaps - pred)))
        tail = float(np.polyfit(np.log(Ls), np.log(gaps), 1)[0])
        summary["tail_log_slope"] = tail
        summary["faster_than_one_over_L"] = bool(tail < -1.0)
    return summary


def long_range_checks(profile, eps, alpha=None, delta1=0.5):
    """Ring diagnostics of the rescaled field v at |y| = L = -log eps.

    ``profile`` exposes val_r, d1, lap, dlap_dr (radial closed forms, as
    RescaledBubble does).  Targets follow the far-field law v ~
    -(alpha/8 pi^2) log|y|; each row carries the next-order O(1/L) gap
    scaled by L so the band constant is visible.
    """
    L = float(big_l(eps))
    if alpha is None:
        alpha = MASS_LIMIT
    a8 = alpha / (8.0 * np.pi**2)
    r_out = max(delta1 / eps, 2.0 * L)
    slope = (profile.val_r(r_out) - profile.val_r(L)) / (np.log(r_out) - np.log(L))
    checks = [
        {"name": "slope_v_vs_logr", "value": float(slope), "target": -a8},
        {"name": "dr_v_times_L", "value": float(profile.d1(L) * L), "target": -a8},
        {"name": "lap_v_times_L2", "value": float(profile.lap(L) * L**2), "target": -2.0 * a8},
        {
            "name": "dr_lap_v_times_L3",
            "value": float(profile.dlap_dr(L) * L**3),
            "target": 4.0 * a8,
        },
    ]
    for c in checks:
        c["gap"] = c["value"] - c["target"]
        c["gap_times_L"] = c["gap"] * L
    return {"L": L, "ring_outer": r_out, "checks": checks}


def mainest_fit(seq, cfg: SequenceConfig, delta=None, n=2000):
    """tau-weighted sup-norm per eps plus a constancy verdict (max/min <= 3).

    The sampled sups are only lower bounds; each row's ``sampling_error``
    and ``core_sampling_error`` are their changes when the samples are
    doubled, |outer(2n) - outer(n)| and |core(2n) - core(n)|.
    """
    if delta is None:
        delta = cfg.delta1
    rows = []
    for f in seq:
        outer, core = weighted_sup_norm(
            f, f.params, cfg.tau, delta, n=n, rng=cfg.seed
        )
        outer2, core2 = weighted_sup_norm(f, f.params, cfg.tau, delta, n=2 * n, rng=cfg.seed)
        rows.append({"eps": f.eps, "outer_norm": outer, "core_norm": core,
                     "sampling_error": abs(outer2 - outer), "core_sampling_error": abs(core2 - core)})
    cs = np.array([max(r["outer_norm"], 1e-12) for r in rows])
    verdict = float(np.max(cs) / np.min(cs)) <= 3.0
    return {"rows": rows, "bounded_constant": verdict, "ratio": float(np.max(cs) / np.min(cs))}


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
    vec = h.gradient(q[None, :])[0] / hq + 4.0 * phi.gradient(q[None, :])[0]
    return vec


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
    sines = sine_source(h.L, h.N, dict(zip(units, amp * np.cos(phase))))
    cosines = TorusSpectralField.from_modes(h.L, h.N, dict(zip(units, -amp * np.sin(phase))))
    return TorusSpectralField(h.L, sines.coeffs + cosines.coeffs)


def sine_source(L, N, modes):
    """sum_k a_k sin(2 pi k.x / L) as a TorusSpectralField (gradients of
    sine modes do not vanish at the origin, unlike from_modes cosines)."""
    c = np.zeros((N,) * 4, complex)
    for k, a in modes.items():
        kp = tuple(int(v) % N for v in k)
        kn = tuple((-int(v)) % N for v in k)
        c[kp] += a / 2.0j
        c[kn] -= a / 2.0j
    return TorusSpectralField(L, c)


def vrate_rate_fit(h, b_tuned, b_off, eps_list, tau, q=ORIGIN):
    """Exponent fit of |balance| for b_eps = b_tuned + eps^{tau/2} b_off.

    The synthetic family realizes the predicted vanishing rate exactly, so
    the fitted exponent must return tau/2.
    """
    eps_list = [float(e) for e in eps_list]
    norms = []
    for e in eps_list:
        b = TorusSpectralField(
            b_tuned.L, b_tuned.coeffs + e ** (tau / 2.0) * b_off.coeffs
        )
        norms.append(float(np.linalg.norm(vrate_balance(h, b, q))))
    if min(norms) <= 0.0:
        raise ValueError(
            "offset source has vanishing regular-part gradient at q; "
            "use a sine mode or move the placement point"
        )
    expo = float(np.polyfit(np.log(eps_list), np.log(norms), 1)[0])
    return {"norms": dict(zip(eps_list, norms)), "exponent": expo, "target": tau / 2.0}
