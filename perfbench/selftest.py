#!/usr/bin/env python3
"""Self-test of the benchmark at smoke sizes (a few minutes on two cores).

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` names exactly the metrics the benchmark
prints, with the same units; that one short untraced run of every
workload prints every end-to-end metric; that two traced runs at one seed
print every per-layer metric and repeat the deterministic counters
exactly; and that each workload's traced run reports work in the layers
it is meant to exercise.  Exits 1 on the first list of problems.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS
from tracer import COUNTERS, metric_names

# per-layer metrics that must be nonzero on each workload
EXERCISED = {
    "ball-and-geodesic": (
        "cli.bubble-check.s", "cli.kernel-check.s", "cli.mass.s", "cli.pohozaev.s",
        "cli.distance.s", "cli.longrange.s", "cli.alpha-sweep.s", "cli.mainest.s",
        "cli.write_s", "cnc.metric_taylor_from_jet.s", "cnc.blowup_metric.s",
        "pohozaev.balance_flat.s", "pohozaev.balance_curved.s", "pohozaev.points",
        "pohozaev.self_s", "quadrature.nodes", "quadrature.self_s",
        "geodesic.geodesic_distance.calls", "geodesic.solver_iters",
        "geodesic.energy_evals", "geodesic.self_s",
        "fields.calls", "fields.points", "fields.self_s",
        "bubble.self_s", "harness.self_s",
    ),
    "exact-torus-conformal": (
        "cli.cnc.s", "cli.green-fit.s", "cli.represent.s", "cli.vrate.s", "cli.write_s",
        "cnc.self_s", "cnc.poly_mul.calls", "cnc.product_defect.s", "cnc.cnc_identity_suite.s",
        "potential.green_pair_value.calls", "potential.green_pair_value.s",
        "potential.grid_points", "potential.fit_log_singularity.s",
        "potential.representation_check.s", "potential.self_s",
        "curvature.self_s", "curvature.riemann_of_metric.calls", "curvature.q_curvature.s",
        "curvature.check_conformal_covariance.s", "curvature.gauss_bonnet_check.s",
        "models.self_s", "fields.calls", "fields.points", "fields.self_s", "harness.self_s",
    ),
}
EVERYWHERE = ("proc.user_s", "proc.sys_s", "proc.minor_faults")


def bench(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_names(where, result, want):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    problems = [f"{where}: missing {n}" for n in sorted(set(want) - set(got))]
    problems += [f"{where}: unnamed {n}" for n in sorted(set(got) - set(want))]
    problems += [f"{where}: {n} in {got[n]}, declared {u}" for n, u in want.items()
                 if n in got and got[n] != u]
    if not result["correct"]:
        problems.append(f"{where}: run reported correct = false")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    if per_layer != metric_names():
        problems.append("BENCHMARK.json per_layer differs from tracer.metric_names()")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    if set(EXERCISED) != set(WORKLOADS):
        problems.append("EXERCISED does not cover every workload")
    for workload in WORKLOADS:
        problems += check_names(f"{workload} trace 0", bench(workload, 0), end_to_end)
        first, second = bench(workload, 1), bench(workload, 1)
        for n, result in enumerate((first, second)):
            problems += check_names(f"{workload} trace 1 #{n}", result, per_layer)
        values = [{k: m["value"] for k, m in r["metrics"].items()} for r in (first, second)]
        for name in COUNTERS:
            if values[0].get(name) != values[1].get(name):
                problems.append(f"{workload}: {name} {values[0].get(name)} then {values[1].get(name)}")
        for name in EXERCISED[workload] + EVERYWHERE:
            if not values[0].get(name):
                problems.append(f"{workload}: {name} is zero")
        print(f"{workload}: checked", flush=True)
    for p in problems:
        print(f"PROBLEM {p}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
