"""One pass of one benchmark workload, in a fresh Python process.

Run by ``run.py``; not meant to be called by hand.  The pass puts the
checkout's ``src/`` first on ``sys.path``, imports every ``qcurv`` module
with numpy, scipy and sympy (the set-up), runs the workload's suites
through the public CLI entry point ``qcurv.cli.main``, or the criterion-6
curvature runner, and verifies what they wrote.  It prints one JSON
object as its last line of standard output:

- ``t_ready``: ``time.monotonic()`` once the imports are done and the
  first suite can be called, which the parent compares with the moment it
  started this process;
- ``run_s``: first suite call until every output is written and verified;
- ``suite_s``: wall time of each suite, verification included;
- ``checks``: one entry per expected check, with ``ok`` and ``why``;
- ``hashes``: SHA-256 of every emitted ``COMMAND.json`` / ``COMMAND.csv``;
- ``rusage``: peak RSS, user and system time and minor faults;
- ``trace``: per-layer metrics when run with ``--trace``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MODULES = (
    "bubble",
    "cli",
    "cnc",
    "curvature",
    "fields",
    "geodesic",
    "harness",
    "models",
    "pohozaev",
    "potential",
    "quadrature",
)

# The suites of each workload and the CLI config that sizes them.  Keys not
# listed keep their ``qcurv.cli.DEFAULTS`` value.  ``smoke`` sizes are for
# the self-test only: they exercise every layer in seconds, and their values
# are not compared with the reference table.
WORKLOADS = {
    "ball-and-geodesic": {
        "suites": (
            "bubble-check",
            "kernel-check",
            "mass",
            "pohozaev",
            "distance",
            "longrange",
            "alpha-sweep",
            "mainest",
        ),
        "full": {"pohozaev": {"eps_list": "0.1,0.05"}},
        "smoke": {
            "bubble-check": {"n_points": 1000},
            "kernel-check": {"n_points": 1000},
            "pohozaev": {"n_r": 12, "n_u": 8, "n_phi": 8, "n_third": 4, "eps_list": "0.1,0.05"},
            "distance": {"n_pairs": 1, "n_nodes": 12},
        },
    },
    "exact-torus-conformal": {
        "suites": ("cnc", "green-fit", "represent", "vrate", "conformal"),
        "full": {
            "cnc": {"n_jets": 10},
            "green-fit": {"n_pairs": 1},
            "conformal": {"sphere_model": (6, 3, 3)},
        },
        "smoke": {
            "cnc": {"n_jets": 2},
            "green-fit": {"n": 16, "n_pairs": 1},
            "represent": {"n_fields": 2},
            "conformal": {"sphere_model": (6, 3, 3)},
        },
    },
}


def _import_qcurv():
    """Import every qcurv module from the checkout; refuse any other copy."""
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"qcurv.{name}") for name in MODULES}
    qfile = Path(sys.modules["qcurv"].__file__).resolve()
    if SRC.resolve() not in qfile.parents:
        raise SystemExit(f"qcurv imported from {qfile}, outside the checkout's src/")
    import numpy
    import scipy
    import sympy

    versions = {
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
    }
    return mods, str(qfile), versions


def _write_config(path, sizes):
    lines = []
    for section, keys in sizes.items():
        if section == "conformal":
            continue
        lines.append(f"[{section}]")
        lines += [f"{k} = {v}" for k, v in keys.items()]
    path.write_text("\n".join(lines) + "\n")


def run_cli_suite(mods, suite, out_dir, config, seed):
    """``qcurv SUITE --out DIR --seed N --quiet [--config FILE]``; returns the exit code."""
    argv = [suite, "--out", str(out_dir), "--seed", str(seed), "--quiet"]
    if config is not None:
        argv += ["--config", str(config)]
    return mods["cli"].main(argv)


def run_conformal(mods, out_dir, seed, sphere_model):
    """Criterion 6 through the public curvature API, written like a CLI suite.

    Seed 0 uses the acceptance test's evaluation points; other seeds draw
    them from the same ranges.
    """
    import numpy as np
    import sympy as sp

    curvature, fields, models = mods["curvature"], mods["fields"], mods["models"]
    x0, x1, x2, _ = fields.COORDS
    r2 = sum(c**2 for c in fields.COORDS)
    dom = fields.Box.cube(5.0)
    g = fields.MetricField.flat(dom)
    u = fields.ScalarField.from_expr(sp.log(2 / (1 + r2)), dom)
    f = fields.ScalarField.from_expr(x0**2 * x1 + x2, dom)
    if seed == 0:
        pts = np.array([[0.3, 0.1, -0.2, 0.4], [0.0, 0.5, 0.2, -0.1]])
        q_pts = (np.zeros(4), np.array([0.5, 0.0, -0.3, 0.2]))
    else:
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-0.5, 0.5, (2, 4))
        q_pts = (np.zeros(4), rng.uniform(-0.5, 0.5, 4))
    d1 = curvature.check_conformal_covariance(g, u, f, pts, step=0.08)
    d2 = curvature.check_conformal_covariance(g, u, f, pts, step=0.04)
    order = float(np.log2(d1 / d2))
    gs = models.sphere_metric()
    q_gap = max(abs(curvature.q_curvature(gs, x) - 3.0) for x in q_pts)
    total = curvature.gauss_bonnet_check(models.SphereModel(*sphere_model))
    gb_rel = float(abs(total - 8.0 * np.pi**2) / (8.0 * np.pi**2))
    checks = [
        {"name": "covariance_refinement_order", "value": order, "bound": "4 +- 0.5",
         "pass": abs(order - 4.0) <= 0.5},
        {"name": "round_sphere_q_gap", "value": float(q_gap), "bound": 1e-6,
         "pass": bool(q_gap <= 1e-6)},
        {"name": "gauss_bonnet_rel_error", "value": gb_rel, "bound": 0.01,
         "pass": gb_rel <= 0.01},
    ]
    summary = {"command": "conformal", "pass": all(c["pass"] for c in checks),
               "checks": checks, "seed": seed}
    with open(out_dir / "conformal.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0 if summary["pass"] else 1


def _expected_pass(spec, seed, got):
    """Expected ``pass`` flag; ``"by_seed"`` checks are judged only at recorded seeds."""
    if spec["pass"] != "by_seed":
        return spec["pass"]
    return spec.get("pass_by_seed", {}).get(str(seed), got)


def _close(value, ref, rtol):
    return abs(value - ref) <= rtol * abs(ref) + 1e-300


def verify(suite, out_dir, exit_code, seed, expected, compare_values):
    """One entry per expected check of ``suite``: ``{suite, name, ok, why}``.

    A check fails when its ``pass`` flag differs from the expected outcome,
    when a rounding residual exceeds its bound, or when its value differs
    from the recorded reference beyond ``rtol``.  A suite that raised,
    exited 2 or wrote no JSON fails every one of its checks.  Without
    ``compare_values`` (smoke sizes) only the set of check names is checked.
    """
    table = expected["suites"][suite]["checks"]
    path = out_dir / f"{suite}.json"
    if exit_code not in (0, 1) or not path.exists():
        why = f"suite ended with {exit_code!r} and no usable output"
        return [{"suite": suite, "name": n, "ok": False, "why": why} for n in table]
    emitted = {c["name"]: c for c in json.loads(path.read_text())["checks"]}
    out = []
    for name in sorted(set(table) | set(emitted)):
        spec, got = table.get(name), emitted.get(name)
        why = ""
        if spec is None:
            why = "check not in the expected table"
        elif got is None:
            why = "check missing from the output"
        elif not compare_values:
            pass
        elif got["pass"] != _expected_pass(spec, seed, got["pass"]):
            why = f"pass = {got['pass']}, expected {not got['pass']}"
        elif "residual_bound" in spec:
            if not abs(got["value"]) <= spec["residual_bound"]:
                why = f"residual {got['value']!r} above {spec['residual_bound']!r}"
        else:
            ref = spec.get("ref", {})
            want = ref.get("*", ref.get(str(seed)))
            if want is not None and not _close(got["value"], want, spec.get("rtol", expected["rtol"])):
                why = f"value {got['value']!r} moved from reference {want!r}"
        out.append({"suite": suite, "name": name, "ok": not why, "why": why,
                    "value": None if got is None else got["value"],
                    "pass": None if got is None else got["pass"]})
    return out


def digest(out_dir, suites):
    """SHA-256 of every ``SUITE.json`` / ``SUITE.csv`` the suites wrote."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.stem in suites and p.suffix in (".json", ".csv")
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    mods, qfile, versions = _import_qcurv()
    t_ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"t_ready": t_ready}))
        return 0

    spec = WORKLOADS[args.workload]
    sizes = spec[args.size]
    expected = json.loads((HERE / "expected.json").read_text())
    args.out.mkdir(parents=True, exist_ok=True)
    config = None
    if any(s != "conformal" for s in sizes):
        config = args.out / "config.ini"
        _write_config(config, sizes)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(mods)

    t_first = time.monotonic()
    checks = []
    suite_s = {}
    for suite in spec["suites"]:
        t_suite = time.monotonic()
        try:
            if suite == "conformal":
                code = run_conformal(mods, args.out, args.seed, **sizes["conformal"])
            else:
                code = run_cli_suite(mods, suite, args.out, config, args.seed)
        except Exception:  # a suite that raises fails its checks; keep going
            traceback.print_exc()
            code = "exception"
        suite_s[suite] = time.monotonic() - t_suite
        checks += verify(suite, args.out, code, args.seed, expected, args.size == "full")
    hashes = digest(args.out, spec["suites"])
    run_s = time.monotonic() - t_first

    ru = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "t_ready": t_ready,
        "run_s": run_s,
        "suite_s": suite_s,
        "checks": checks,
        "hashes": hashes,
        "rusage": {
            "peak_rss_mb": ru.ru_maxrss / 1024.0,
            "user_s": ru.ru_utime,
            "sys_s": ru.ru_stime,
            "minor_faults": ru.ru_minflt,
        },
        "qcurv_file": qfile,
        "versions": versions,
        "blas_threads": _blas_threads(),
        "trace": None,
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.metrics()
        with open(args.out / "spans.json", "w") as fh:
            json.dump(tracer.dump(), fh)
    print(json.dumps(result))
    return 0


def _blas_threads():
    """OpenBLAS thread count from the library numpy loaded, or None."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


if __name__ == "__main__":
    code = main()
    # skip interpreter teardown, which takes a sizeable share of a short pass
    sys.stdout.flush()
    os._exit(code)
