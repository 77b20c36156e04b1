"""Batch verification CLI.

Each subcommand runs one check suite and writes a JSON summary (and a CSV
for sweep commands) into the output directory.  Exit codes: 0 all checks
passed, 1 at least one check failed, 2 usage or configuration error.  A
numerical failure (a point outside its chart, a degenerate metric, a solver
that does not converge) is a failed check named after the error, with its
message as the value.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import json
import sys
from importlib.metadata import version
from pathlib import Path

import numpy as np
import numpy.random  # loaded with the module, so that no suite run pays for it

from . import __version__

USAGE_ERROR = 2


# ---------------------------------------------------------------------------
# configuration

# Fixed suite parameters.  Each check's band is set for these values, so
# they are not configurable.
TORUS_L = 2.0 * np.pi  # side of the torus in green-fit, represent and vrate
BUBBLE_H = 1.0  # bubble strength in mass, longrange and alpha-sweep
TILT_AMP = 0.05  # pohozaev's bubble tilt
LONGRANGE_EPS = 1e-4
MAINEST_AMP = 0.02
TAU = 0.5  # mainest's weight exponent and vrate's rate
MASS_RADII = (10.0, 20.0, 40.0, 80.0, 160.0)  # mass_over_16pi2 reads the first
POHOZAEV_R = 20.0  # radius of pohozaev's flat ball
REPRESENT_N = 16  # represent's grid points per axis
REPRESENT_MODES = 10  # cos modes of each represent field
DISTANCE_EPS = (0.1, 0.05, 0.025)
ALPHA_EPS = (1e-2, 1e-3, 1e-4, 1e-5)  # alpha_rel_gap_eps_le_1e-3 reads the last three
MAINEST_EPS = (1e-2, 1e-3, 1e-4)

# The config keys: suite sizes, each of which perfbench's workloads set.
DEFAULTS = {
    "bubble-check": {"n_points": 10000},
    "kernel-check": {"n_points": 10000},
    "mass": {},
    "pohozaev": {"n_r": 48, "n_u": 24, "n_phi": 24, "eps_list": "0.1,0.05,0.025", "n_third": 100},
    "green-fit": {"n": 64, "n_pairs": 20},
    "represent": {"n_fields": 10},
    "cnc": {"n_jets": 50},
    "distance": {"n_pairs": 2, "n_nodes": 32},
    "longrange": {},
    "alpha-sweep": {},
    "mainest": {},
    "vrate": {},
}

COMMANDS = list(DEFAULTS) + ["all"]


class ConfigError(ValueError):
    pass


def load_config(path, command):
    """Per-command key/value overrides from a flat sectioned text file."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for section in parser.sections():
        if section not in DEFAULTS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in DEFAULTS[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
    params = dict(DEFAULTS[command])
    if parser.has_section(command):
        for key, raw in parser[command].items():
            default = DEFAULTS[command][key]
            try:
                params[key] = raw if isinstance(default, str) else int(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {command}.{key}: {raw}") from exc
            # a size below 1 would run no case, and its check could not fail
            if isinstance(default, int) and params[key] < 1:
                raise ConfigError(f"{command}.{key} must be at least 1, got {raw}")
    return params


def parse_eps_list(raw):
    """A strictly decreasing list of at least two positive eps: pohozaev fits
    its slope across the list, which one value cannot fail."""
    try:
        eps = tuple(float(tok) for tok in str(raw).split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"bad eps_list: {raw}") from exc
    if len(eps) < 2:
        raise ConfigError(f"eps_list needs at least two values, got {raw!r}")
    if any(e <= 0 for e in eps):
        raise ConfigError("eps_list must contain positive values")
    if not all(b < a for a, b in zip(eps[:-1], eps[1:])):
        raise ConfigError("eps_list must be strictly decreasing")
    return eps


def _check(name, value, bound, passed):
    return {"name": name, "value": value, "bound": bound, "pass": bool(passed)}


def _at_most(name, value, bound):
    return _check(name, value, bound, value <= bound)


def _band(name, value, center, width):
    return _check(name, value, f"{center:g} +- {width:g}", abs(value - center) <= width)


# ---------------------------------------------------------------------------
# suites; each returns (checks, rows), rows None or a list of dicts keyed by
# CSV column in column order


def run_bubble_check(p, seed):
    from .bubble import BubbleParams, RescaledBubble, bubble_pde_residual, rescaling_identity_gap

    rng = np.random.default_rng(seed)
    worst = 0.0
    n = int(p["n_points"])
    for H in rng.uniform(0.5, 2.0, 16):
        pts = rng.uniform(-50.0, 50.0, (n // 16, 4))
        pts = pts[np.linalg.norm(pts, axis=1) <= 50.0]
        worst = max(worst, float(np.max(np.abs(bubble_pde_residual(RescaledBubble(H), pts)))))
    gap = 0.0
    for _ in range(20):
        b = BubbleParams(
            p=tuple(rng.uniform(-1, 1, 4)),
            eps=float(rng.uniform(0.05, 2.0)),
            H=float(rng.uniform(0.5, 2.0)),
        )
        xi = rng.uniform(-3, 3, 4)
        gap = max(gap, rescaling_identity_gap(b, xi))
    checks = [
        _at_most("max_pde_residual", worst, 1e-10),
        _at_most("rescaling_identity_gap", gap, 1e-14),
    ]
    return checks, None


def run_kernel_check(p, seed):
    from .bubble import KernelElement, linearized_residual

    rng = np.random.default_rng(seed)
    pts = rng.uniform(-50.0, 50.0, (int(p["n_points"]), 4))
    pts = pts[np.linalg.norm(pts, axis=1) <= 50.0]
    worst = max(
        float(np.max(np.abs(linearized_residual(KernelElement(j), pts))))
        for j in range(5)
    )
    return [_at_most("max_linearized_residual", worst, 1e-8)], None


def run_mass(p, seed):
    from .bubble import MASS_LIMIT, RescaledBubble, mass_integral, mass_integral_exact

    rb = RescaledBubble(H=BUBBLE_H)
    rows = []
    gaps = []
    for R in MASS_RADII:
        mq = mass_integral(rb, R)
        ex = mass_integral_exact(rb, R)
        rows.append({"R": R, "mass": mq, "exact": ex, "error_estimate": abs(mq - ex)})
        gaps.append(abs(ex - MASS_LIMIT))
    ratio = rows[0]["mass"] / MASS_LIMIT
    # fit on the asymptotic radii (the R^-4 law is a tail statement)
    slope = float(np.polyfit(np.log(MASS_RADII[1:]), np.log(gaps[1:]), 1)[0])
    checks = [
        _check("mass_over_16pi2", ratio, "[0.999, 1.001]", 0.999 <= ratio <= 1.001),
        _band("tail_log_slope", slope, -4.0, 0.2),
        _at_most("quadrature_vs_exact", rows[0]["error_estimate"], 1e-10),
    ]
    return checks, rows


def run_pohozaev(p, seed):
    from fractions import Fraction

    from .bubble import RescaledBubble
    from .cnc import metric_taylor_from_jet, random_conformal_normal_jet, scale_jet
    from .pohozaev import BallDomain, RadialProfileField, pohozaev_balance

    rng = np.random.default_rng(seed)
    rb = RescaledBubble(H=1.0)
    ball = BallDomain(POHOZAEV_R, n_r=int(p["n_r"]), n_u=int(p["n_u"]), n_phi=int(p["n_phi"]))
    u = RadialProfileField(rb)
    h = lambda pts: np.full(len(np.atleast_2d(pts)), 1.0)
    b = lambda pts: np.zeros(len(np.atleast_2d(pts)))
    (rep,) = pohozaev_balance(u, h, b, ball)
    rel = abs(rep.residual) / abs(rep.I0)

    # curved sweep on a unit ball with a tilted bubble
    jet = random_conformal_normal_jet(rng=int(rng.integers(0, 2**31)))
    tilt = [TILT_AMP, -0.6 * TILT_AMP, 0.4 * TILT_AMP, 0.8 * TILT_AMP]
    ut = RadialProfileField(rb, tilt=tilt)
    small = BallDomain(1.0, n_r=24, n_u=16, n_phi=16)
    eps_list = parse_eps_list(p["eps_list"])
    mts = [
        metric_taylor_from_jet(scale_jet(jet, Fraction(eps).limit_denominator(10**6)))
        for eps in eps_list
    ]
    # the metrics go in positionally: perfbench's tracer classifies the call by args[4]
    sweep = pohozaev_balance(ut, h, b, small, mts)
    mags = [abs(r.I2) + abs(r.I3) + abs(r.I4) for r in sweep]
    slope = float(np.polyfit(np.log(eps_list), np.log(mags), 1)[0])

    worst3 = 0.0
    for _ in range(int(p["n_third"])):
        a, c = rng.uniform(0.2, 2.0, 2)
        prof = _SmoothRadial(a, c)
        y = rng.uniform(-2, 2, 4)
        if np.linalg.norm(y) < 0.3:
            y[0] += 1.0
        i, m, l = rng.integers(0, 4, 3)
        third = float(RadialProfileField(prof).jet(y[None, :], 3)[3][0, i, m, l])
        worst3 = max(worst3, abs(third - _fd_third(prof, y, i, m, l)))

    checks = [
        _at_most("flat_rel_residual", rel, 1e-4),
        _band("curved_eps_slope", slope, 1.0, 0.3),
        _at_most("radial_third_vs_fd", worst3, 1e-6),
    ]
    reports = [("flat", rep, ball)] + [(eps, r, small) for eps, r in zip(eps_list, sweep)]
    rows = [
        {"parameter": k, "I0": r.I0, "I1": r.I1, "I2": r.I2, "I3": r.I3, "I4": r.I4,
         "residual": r.residual, "error_estimate": r.error_estimate,
         "unmodeled_remainder": r.unmodeled_remainder,
         "n_interior": len(dom.int_w), "n_boundary": len(dom.bdy_w)}
        for k, r, dom in reports
    ]
    return checks, rows


class _SmoothRadial:
    """f(r) = log(1 + a r^2) + cos(c r), a radial profile with closed-form
    d1, d2, d3 to check third derivatives against finite differences."""

    def __init__(self, a, c):
        self.a = a
        self.c = c

    def val_r(self, r):
        return np.log1p(self.a * np.asarray(r) ** 2) + np.cos(self.c * np.asarray(r))

    def d1(self, r):
        r = np.asarray(r)
        return 2 * self.a * r / (1 + self.a * r**2) - self.c * np.sin(self.c * r)

    def d2(self, r):
        r = np.asarray(r)
        q = 1 + self.a * r**2
        return 2 * self.a * (1 - self.a * r**2) / q**2 - self.c**2 * np.cos(self.c * r)

    def d3(self, r):
        r = np.asarray(r)
        q = 1 + self.a * r**2
        return 4 * self.a**2 * r * (self.a * r**2 - 3) / q**3 + self.c**3 * np.sin(self.c * r)


def _fd_third(prof, y, i, m, l, h=2e-2):
    def f(pt):
        return float(prof.val_r(np.linalg.norm(pt)))

    def axis_diff(fun, ax, step):
        e = np.zeros(4)
        e[ax] = step
        return lambda pt: (fun(pt + e) - fun(pt - e)) / (2 * step)

    def third(step):
        g = axis_diff(axis_diff(axis_diff(f, i, step), m, step), l, step)
        return g(np.asarray(y, float))

    # Richardson extrapolation of the O(h^2) nested central differences
    return (4.0 * third(h / 2) - third(h)) / 3.0


def run_green_fit(p, seed):
    from .potential import LOG_COEFF, fit_log_singularity, green_pair_value

    rng = np.random.default_rng(seed)
    N, L = int(p["n"]), TORUS_L
    dec = fit_log_singularity(N, L)
    rel = abs(dec.c_log - LOG_COEFF) / abs(LOG_COEFF)
    sym = 0.0
    for _ in range(int(p["n_pairs"])):
        xi = rng.uniform(0, L, 4)
        eta = rng.uniform(0, L, 4)
        sym = max(
            sym, abs(green_pair_value(N, L, xi, eta) - green_pair_value(N, L, eta, xi))
        )
    checks = [
        _at_most("c_log_rel_error", rel, 0.02),
        _at_most("symmetry_defect", sym, 1e-10),
    ]
    rows = [{"window_lo": dec.fit_window[0], "window_hi": dec.fit_window[1],
             "c_log": dec.c_log, "rms_error_estimate": dec.rms}]
    return checks, rows


def run_represent(p, seed):
    from .potential import TorusSpectralField, representation_check

    rng = np.random.default_rng(seed)
    worst = 0.0
    rows = []
    for k in range(int(p["n_fields"])):
        modes = {}
        for _ in range(REPRESENT_MODES):
            kv = tuple(int(v) for v in rng.integers(-3, 4, 4))
            if kv == (0, 0, 0, 0):
                kv = (1, 0, 0, 0)
            modes[kv] = float(rng.uniform(-1, 1))
        dev = representation_check(TorusSpectralField(TORUS_L, cos=modes), REPRESENT_N)
        rows.append(
            {"field": k, "deviation": dev, "roundoff_scale": np.finfo(float).eps * REPRESENT_N**2}
        )
        worst = max(worst, dev)
    return [_at_most("max_representation_deviation", worst, 1e-9)], rows


def run_cnc(p, seed):
    from .cnc import (
        cnc_identity_suite,
        contracted_first_derivative,
        contracted_first_derivative_display,
        contracted_second_derivative,
        contracted_second_derivative_display,
        inverse_metric_taylor,
        log_det_poly,
        metric_taylor_from_jet,
        poly_truncate,
        product_defect,
        random_conformal_normal_jet,
    )

    rng = np.random.default_rng(seed)
    failures = 0
    n_jets = int(p["n_jets"])
    for _ in range(n_jets):
        jet = random_conformal_normal_jet(rng=int(rng.integers(0, 2**31)))
        mt = metric_taylor_from_jet(jet)
        failed = (
            product_defect(mt, inverse_metric_taylor(mt)).any()
            or poly_truncate(log_det_poly(mt), 2).any()
            or (contracted_first_derivative(mt) != contracted_first_derivative_display(jet)).any()
            or (contracted_second_derivative(mt) != contracted_second_derivative_display(jet)).any()
            or not all(r["pass"] for r in cnc_identity_suite(jet).values())
        )
        failures += bool(failed)
    return [_at_most("exact_identity_failures", failures, 0)], None


def run_distance(p, seed):
    from .cnc import random_conformal_normal_jet, scale_jet
    from .geodesic import distance_ratio_sweep
    from fractions import Fraction

    rng = np.random.default_rng(seed)
    jet = scale_jet(random_conformal_normal_jet(rng=int(rng.integers(0, 2**31))), Fraction(1, 10))
    pairs = []
    for _ in range(int(p["n_pairs"])):
        u = rng.standard_normal(4)
        v = rng.standard_normal(4)
        pairs.append((u / np.linalg.norm(u), 1.5 * v / np.linalg.norm(v)))
    rep = distance_ratio_sweep(jet, DISTANCE_EPS, pairs, n_nodes=int(p["n_nodes"]))
    cs = np.array(list(rep["per_eps_c"].values()))
    dev = float(np.max(np.abs(cs - np.mean(cs))) / np.mean(cs))
    checks = [
        _at_most("constant_stability", dev, 0.25),
        _band("eps_exponent", rep["eps_exponent"], 2.0, 0.3),
    ]
    return checks, rep["rows"]


def run_longrange(p, seed):
    from .bubble import RescaledBubble
    from .harness import long_range_checks

    rows = long_range_checks(RescaledBubble(H=BUBBLE_H), LONGRANGE_EPS)
    bands = {"slope_v_vs_logr": 0.01, "lap_v_times_L2": 0.05, "dr_lap_v_times_L3": 0.05}
    checks = [
        _check(r["name"], r["value"], f"{r['target']} +- {bands[r['name']]:.0%}",
               r["error_estimate"] / abs(r["target"]) <= bands[r["name"]])
        for r in rows
        if r["name"] in bands
    ]
    return checks, rows


def run_alpha_sweep(p, seed):
    from .harness import alpha_sweep

    rep = alpha_sweep(ALPHA_EPS, BUBBLE_H)
    worst = max(abs(r["rel_gap"]) for r in rep["rows"] if r["eps"] <= 1e-3)
    tail = rep["tail_log_slope"]
    checks = [
        _at_most("alpha_rel_gap_eps_le_1e-3", worst, 0.005),
        _check("deviation_faster_than_1_over_L", tail, "log-slope < -1", tail < -1.0),
    ]
    return checks, rep["rows"]


def run_mainest(p, seed):
    from .harness import mainest_fit

    rep = mainest_fit(MAINEST_EPS, MAINEST_AMP, TAU, seed)
    return [_at_most("constant_ratio", rep["ratio"], 3.0)], rep["rows"]


def run_vrate(p, seed):
    from .harness import tuned_source, vrate_balance, vrate_rate_fit
    from .potential import TorusSpectralField

    rng = np.random.default_rng(seed)
    h = TorusSpectralField(
        TORUS_L, cos={(0, 0, 0, 0): 2.0},
        sin={(1, 0, 0, 0): 0.3, (0, 1, 0, 0): -0.2, (0, 0, 1, 1): 0.15},
    )
    bt = tuned_source(h)
    tuned = float(np.linalg.norm(vrate_balance(h, bt)))

    bu = TorusSpectralField(TORUS_L, cos={(1, 1, 0, 0): float(rng.uniform(0.2, 0.6))})
    q = np.array([0.3, 0.2, 0.1, 0.0])
    vec = vrate_balance(h, bu, q=q)
    oracle = _fd_balance(h, bu, q)
    gap = float(np.max(np.abs(vec - oracle)))

    boff = TorusSpectralField(TORUS_L, sin={(0, 0, 1, 0): 0.5})
    fit = vrate_rate_fit(h, bt, boff, [1e-1, 1e-2, 1e-3], TAU)
    target = TAU / 2.0
    checks = [
        _at_most("tuned_balance", tuned, 1e-8),
        _at_most("untuned_vs_fd_oracle", gap, 1e-6),
        _check("rate_exponent", fit["exponent"], f"tau/2 = {target}",
               abs(fit["exponent"] - target) <= 0.05),
    ]
    rows = []
    for e, n in fit["norms"].items():
        # the norm's gap to the finite-difference oracle's at the origin
        fd = float(np.linalg.norm(_fd_balance(h, fit["sources"][e], np.zeros(4))))
        rows.append({"eps": e, "balance_norm": n, "error_estimate": abs(n - fd)})
    return checks, rows


def _fd_balance(h, b, q, step=1e-3):
    """grad h / h + 4 grad phi at ``q``, phi = 2 int G b, from one stencil
    evaluation of the stacked (h, phi) values."""
    from .fields import fd_partials
    from .potential import regular_part_field

    phi = regular_part_field(b)
    hq = float(h.jet(q[None, :], 0)[0][0])
    d = fd_partials(
        lambda p: np.stack([h.jet(p, 0)[0], phi.jet(p, 0)[0]], axis=-1),
        q, [(a,) for a in range(4)], step,
    )
    return np.array([da[0, 0] / hq + 4.0 * da[0, 1] for da in d])


RUNNERS = {
    "bubble-check": run_bubble_check,
    "kernel-check": run_kernel_check,
    "mass": run_mass,
    "pohozaev": run_pohozaev,
    "green-fit": run_green_fit,
    "represent": run_represent,
    "cnc": run_cnc,
    "distance": run_distance,
    "longrange": run_longrange,
    "alpha-sweep": run_alpha_sweep,
    "mainest": run_mainest,
    "vrate": run_vrate,
}


@functools.cache
def _versions():
    # read from the installed metadata, so that suites without sympy need not import it
    return {
        "qcurv": __version__,
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": version("numpy"),
        "sympy": version("sympy"),
    }


def _write_outputs(out_dir, command, checks, rows, seed, quiet):
    passed = all(c["pass"] for c in checks)
    summary = {
        "command": command,
        "pass": passed,
        "checks": checks,
        "seed": seed,
        "versions": _versions(),
    }
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / f"{command}.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if rows:
        with open(out / f"{command}.csv", "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=list(rows[0]))
            w.writeheader()
            w.writerows(rows)
    if not quiet:
        for c in checks:
            status = "PASS" if c["pass"] else "FAIL"
            print(f"[{command}] {status} {c['name']} = {c['value']} (bound {c['bound']})")
    return passed


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="qcurv",
        description="Verification suites for the fourth-order curvature laboratory.",
    )
    parser.add_argument("command", choices=COMMANDS, help="suite to run")
    parser.add_argument("--config", default=None, help="sectioned key=value config file")
    parser.add_argument("--out", default="qcurv-out", help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--quiet", action="store_true", help="suppress per-check lines")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    names = list(RUNNERS) if args.command == "all" else [args.command]
    all_pass = True
    for name in names:
        try:
            params = (
                load_config(args.config, name) if args.config else dict(DEFAULTS[name])
            )
            checks, rows = RUNNERS[name](params, args.seed)
        except RuntimeError as exc:  # ChartError and DegenerateMetricError among them
            checks = [_check(type(exc).__name__, str(exc), "no numerical failure", False)]
            rows = None
        except ValueError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return USAGE_ERROR
        all_pass &= _write_outputs(args.out, name, checks, rows, args.seed, args.quiet)
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
