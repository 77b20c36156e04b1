#!/usr/bin/env python3
"""qcurv benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it measures the ``qcurv`` under
the checkout's ``src/`` and nothing else.  Each pass of the workload is a
fresh Python process (``workload.py``).  With ``--trace 0`` the run starts
passes, one after another, while the elapsed time plus the longest pass so
far stays within ``--seconds`` (at least one pass), and reports the
median ``setup_s``, ``run_s`` and ``peak_rss_mb``.  ``setup_s`` is
sampled five times: by every pass and by extra processes that only
import.  With ``--trace 1`` it makes
one untraced and one traced pass and reports the per-layer metrics of the
traced one, with ``trace.overhead_s`` as the difference of their
``run_s``.

Every pass verifies its outputs against ``expected.json``, and every
emitted ``COMMAND.json`` / ``COMMAND.csv`` is hashed: two passes at one
seed, in this run or an earlier run of the same sources, must write the
same bytes.  The last line of standard output is one JSON object with
``correct``, ``attempted`` (checks), ``failed`` (checks) and ``metrics``.
Outputs, spans and results go under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import metric_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("ball-and-geodesic", "exact-torus-conformal")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


class PassError(RuntimeError):
    pass


def _child(args, deadline):
    """Run ``workload.py`` with ``args``; return (start time, parsed last line)."""
    cmd = [sys.executable, str(HERE / "workload.py")] + args
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise PassError(f"{' '.join(args)}: out of time")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"{' '.join(args)}: exit code {proc.returncode}")
    return start, json.loads(lines[-1])


def setup_probe(deadline):
    start, res = _child(["--workload", WORKLOADS[0], "--seed", "0", "--out", str(WORK),
                         "--setup-only"], deadline)
    return res["t_ready"] - start


def run_pass(opts, out_dir, traced, deadline):
    if out_dir.exists():
        shutil.rmtree(out_dir)
    args = ["--workload", opts.workload, "--seed", str(opts.seed), "--out", str(out_dir),
            "--size", opts.size]
    start, res = _child(args + (["--trace"] if traced else []), deadline)
    res["setup_s"] = res["t_ready"] - start
    res["wall_s"] = time.monotonic() - start
    return res


def source_digest():
    """Digest of the program and of the workload definitions."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qcurv").glob("*.py")) + [HERE / "workload.py"]:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, timeout=30)
    return res.stdout.strip() or None


def machine():
    """nproc, CPU model and L3 size; None where the system does not say."""
    cpu = l3 = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                l3 = (index / "size").read_text().strip()
        except OSError:
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "l3_size": l3,
        "platform": platform.platform(),
    }


def determinism_checks(opts, passes, digest):
    """Compare each pass's output hashes with the first pass and with the store."""
    store = WORK / "hashes" / f"{digest}-{opts.workload}-{opts.size}-seed{opts.seed}.json"
    if store.exists():
        reference = json.loads(store.read_text())
    else:
        reference = passes[0]["hashes"]
        # only outputs that passed verification become the reference
        if all(c["ok"] for p in passes for c in p["checks"]):
            store.parent.mkdir(parents=True, exist_ok=True)
            store.write_text(json.dumps(reference, indent=1, sort_keys=True))
    checks = []
    for i, p in enumerate(passes):
        for name in sorted(set(reference) | set(p["hashes"])):
            ok = reference.get(name) == p["hashes"].get(name)
            checks.append({"suite": "determinism", "name": f"pass{i}/{name}", "ok": ok,
                           "why": "" if ok else "bytes differ from an earlier pass at this seed"})
    return checks


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the self-test, values not checked")
    opts = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "qcurv" / "__init__.py").is_file():
        print(f"no qcurv sources under {ROOT / 'src'}: run from a qcurv checkout",
              file=sys.stderr)
        return 2
    run_dir = WORK / f"{opts.workload}-{opts.size}-seed{opts.seed}-trace{opts.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)

    failures = []
    passes = []
    setups = []
    traced = None
    try:
        t0 = time.monotonic()
        while True:
            passes.append(run_pass(opts, run_dir / f"pass{len(passes)}", False, deadline))
            longest = max(p["wall_s"] for p in passes)
            if opts.trace or time.monotonic() - t0 + longest > opts.seconds:
                break
        if opts.trace:
            traced = run_pass(opts, run_dir / "traced", True, deadline)
        else:
            setups = [setup_probe(deadline) for _ in range(SETUP_SAMPLES - len(passes))]
    except PassError as exc:
        failures.append({"suite": "run", "name": "pass", "ok": False, "why": str(exc)})

    done = passes + ([traced] if traced else [])
    checks = [c for p in done for c in p["checks"]] + failures
    digest = source_digest()
    if done:
        checks += determinism_checks(opts, done, digest)
    failed = [c for c in checks if not c["ok"]]

    metrics = {}
    if opts.trace == 0 and passes:
        metrics = {
            "setup_s": {"value": statistics.median(setups + [p["setup_s"] for p in passes]), "unit": "s"},
            "run_s": {"value": statistics.median(p["run_s"] for p in passes), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["rusage"]["peak_rss_mb"] for p in passes),
                            "unit": "MB"},
        }
    elif traced is not None and passes:
        values = dict(traced["trace"])
        ru = traced["rusage"]
        values.update({"proc.user_s": ru["user_s"], "proc.sys_s": ru["sys_s"],
                       "proc.minor_faults": ru["minor_faults"],
                       "trace.overhead_s": traced["run_s"] - passes[0]["run_s"]})
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in metric_names().items()}

    first = done[0] if done else {}
    record = {
        "workload": opts.workload,
        "seed": opts.seed,
        "seconds": opts.seconds,
        "trace": opts.trace,
        "size": opts.size,
        "environment": dict(
            machine(),
            blas_threads=first.get("blas_threads"),
            versions=first.get("versions"),
            qcurv_file=first.get("qcurv_file"),
            git_commit=git_commit(),
            source_digest=digest,
        ),
        "setup_samples_s": setups + [p["setup_s"] for p in passes],
        "passes": [{k: p[k] for k in ("run_s", "suite_s", "wall_s", "setup_s", "rusage")} for p in done],
        "checks": checks,
        "metrics": metrics,
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=1))

    print(f"environment: {json.dumps(record['environment'], sort_keys=True)}")
    print(f"passes: {len(passes)} untraced, {1 if traced else 0} traced")
    if checks:
        print(f"failed_share: {len(failed) / len(checks):.6g} ({len(failed)} of {len(checks)} checks)")
    for c in failed:
        print(f"FAILED {c['suite']}.{c['name']}: {c['why']}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": bool(done) and not failed,
        "attempted": max(len(checks), 1),
        "failed": len(failed) if checks else 1,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
