#!/usr/bin/env python3
"""Record reference check values in ``expected.json`` from finished runs.

    python3 perfbench/run.py --workload NAME --seed N --seconds 24 --trace 0   # per seed
    python3 perfbench/reference.py

Reads every full-size ``result.json`` under ``.bench_build/perfbench/``
made from the current sources and stores each check's value by seed.  A
value that is the same at every seed seen (two or more) is stored once,
under ``"*"``, and is then compared at any seed.  Checks that are rounding
residuals (``residual_bound``) keep no reference.  A check whose outcome
depends on the seed (``"pass": "by_seed"``) also records its ``pass``
flag per seed; at other seeds its outcome is not judged.  Expected outcomes,
residual bounds and tolerances in ``expected.json`` are edited by hand.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict

from run import HERE, WORK, source_digest


def collect(digest):
    """``{(suite, check): {seed: (value, pass)}}`` over the matching runs."""
    values = defaultdict(dict)
    for path in sorted(WORK.glob("*-full-seed*-trace*/result.json")):
        record = json.loads(path.read_text())
        if record["environment"]["source_digest"] != digest:
            continue
        for c in record["checks"]:
            if c["suite"] in ("run", "determinism") or c.get("value") is None:
                continue
            got = (c["value"], c["pass"])
            seen = values[c["suite"], c["name"]].setdefault(str(record["seed"]), got)
            if seen != got:
                raise SystemExit(f"{c['suite']}.{c['name']} differs between runs at seed "
                                 f"{record['seed']}: {seen!r} vs {c['value']!r}")
    return values


def main():
    path = HERE / "expected.json"
    expected = json.loads(path.read_text())
    values = collect(source_digest())
    if not values:
        raise SystemExit("no full-size results for the current sources")
    for suite, spec in expected["suites"].items():
        for name, check in spec["checks"].items():
            seen = sorted(values.get((suite, name), {}).items(), key=lambda kv: int(kv[0]))
            if check["pass"] == "by_seed":
                check["pass_by_seed"] = {seed: ok for seed, (_, ok) in seen}
            if "residual_bound" in check or not seen:
                continue
            distinct = {repr(v) for _, (v, _) in seen}
            if len(seen) > 1 and len(distinct) == 1:
                check["ref"] = {"*": seen[0][1][0]}
            else:
                check["ref"] = {seed: v for seed, (v, _) in seen}
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    seeds = sorted({int(s) for v in values.values() for s in v})
    print(f"recorded references for seeds {seeds} in {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
