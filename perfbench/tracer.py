"""Layer spans around the public functions of the ``qcurv`` modules.

The tracer wraps every public function and public method of each
``qcurv`` module from outside: at the module attribute, at every binding
another module imported at load time (``from .cnc import blowup_metric``),
and in ``cli.RUNNERS``.  Nothing under ``src/`` changes.

Each module is one layer.  A call opens a span when it crosses a layer
boundary (the innermost open span belongs to another layer) or when the
function has a named timing; calls inside the same layer only bump
counters, which keeps the cost low on hot internal helpers such as
``cnc.poly_mul``.  A layer's self time is the length of its spans minus
the part covered by their direct child spans.  A ``.s`` timing counts
outermost calls only, so a recursive call is not counted twice.

Callbacks are charged to the layer that calls them: the objective that
``scipy.optimize.minimize`` calls runs inside the ``geodesic`` span, and a
metric closure that ``fields`` differentiates runs inside the ``fields``
span.

Spans stay in memory, each with the index of its parent span, and are
written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter

import numpy as np

# outermost wall time of these functions, reported under the given name;
# the CLI suites (``cli.<suite>.s``) are added from ``cli.RUNNERS``
TIMED = {
    "cli._write_outputs": "cli.write_s",
    "cnc.product_defect": "cnc.product_defect.s",
    "cnc.cnc_identity_suite": "cnc.cnc_identity_suite.s",
    "cnc.metric_taylor_from_jet": "cnc.metric_taylor_from_jet.s",
    "cnc.blowup_metric": "cnc.blowup_metric.s",
    "curvature.q_curvature": "curvature.q_curvature.s",
    "curvature.check_conformal_covariance": "curvature.check_conformal_covariance.s",
    "curvature.gauss_bonnet_check": "curvature.gauss_bonnet_check.s",
    "potential.green_pair_value": "potential.green_pair_value.s",
    "potential.fit_log_singularity": "potential.fit_log_singularity.s",
    "potential.representation_check": "potential.representation_check.s",
}

# every call of these functions is counted, nested ones included
CALL_COUNTS = {
    "cnc.poly_mul": "cnc.poly_mul.calls",
    "curvature.riemann_of_metric": "curvature.riemann_of_metric.calls",
    "geodesic.geodesic_distance": "geodesic.geodesic_distance.calls",
    "potential.green_pair_value": "potential.green_pair_value.calls",
}

SUITES = (
    "bubble-check",
    "kernel-check",
    "mass",
    "pohozaev",
    "green-fit",
    "represent",
    "cnc",
    "distance",
    "longrange",
    "alpha-sweep",
    "mainest",
    "vrate",
)

SELF_LAYERS = (
    "cnc",
    "pohozaev",
    "quadrature",
    "geodesic",
    "fields",
    "curvature",
    "models",
    "potential",
    "bubble",
    "harness",
)

TIMED_METRICS = (
    tuple(f"cli.{s}.s" for s in SUITES)
    + tuple(TIMED.values())
    + ("pohozaev.balance_flat.s", "pohozaev.balance_curved.s")
)

# counters that repeat exactly between two traced runs at one seed
COUNTERS = (
    "cnc.poly_mul.calls",
    "curvature.riemann_of_metric.calls",
    "fields.calls",
    "fields.points",
    "geodesic.energy_evals",
    "geodesic.geodesic_distance.calls",
    "geodesic.solver_iters",
    "pohozaev.points",
    "potential.green_pair_value.calls",
    "potential.grid_points",
    "quadrature.nodes",
)


def metric_names():
    """Every per-layer metric a traced run reports, with its unit."""
    names = {f"{layer}.self_s": "s" for layer in SELF_LAYERS}
    names.update({name: "s" for name in TIMED_METRICS})
    names.update({name: "count" for name in COUNTERS})
    names.update({"proc.user_s": "s", "proc.sys_s": "s", "proc.minor_faults": "count"})
    names["trace.overhead_s"] = "s"
    return names


def _n_points(args, kwargs):
    """Points in the first ``(n, 4)`` or ``(4,)`` array argument after ``self``."""
    for value in list(args[1:]) + list(kwargs.values()):
        if isinstance(value, np.ndarray) and value.ndim in (1, 2) and value.shape[-1] == 4:
            return 1 if value.ndim == 1 else value.shape[0]
    return 0


def _grid_points(counts, args, kwargs):
    n = args[0] if args else kwargs["N"]
    counts["potential.grid_points"] += int(n) ** 4


def _balance_points(counts, args, kwargs):
    ball = args[3] if len(args) > 3 else kwargs["ball"]
    counts["pohozaev.points"] += len(ball.int_w) + len(ball.bdy_w)


def _balance_kind(args, kwargs):
    mt = args[4] if len(args) > 4 else kwargs.get("metric_taylor")
    return "pohozaev.balance_flat.s" if mt is None else "pohozaev.balance_curved.s"


# argument hooks, run on every call
_CALL_HOOKS = {
    "potential.green_pair_value": _grid_points,
    "potential.green_grid_values": _grid_points,
    "pohozaev.pohozaev_balance": _balance_points,
}
# timings whose name depends on the arguments
_CLASSIFY = {"pohozaev.pohozaev_balance": _balance_kind}


class Tracer:
    """Span recorder; ``install`` patches the modules, ``uninstall`` restores them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # span: [layer, key, parent index or -1, start, end]
        self.spans = []
        self.stack = []
        self.calls = Counter()
        self.counts = Counter()
        self.timed = Counter()
        self._depth = Counter()
        self._timed_names = dict(TIMED)
        self._patched = []

    def _wrap(self, layer, key, fn):
        spans, stack, calls, counts = self.spans, self.stack, self.calls, self.counts
        depth, timed, clock = self._depth, self.timed, self.clock
        metric = self._timed_names.get(key)
        classify = _CLASSIFY.get(key)
        call_metric = CALL_COUNTS.get(key)
        on_call = _CALL_HOOKS.get(key)
        is_fields = layer == "fields"
        is_quadrature = layer == "quadrature"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            if call_metric is not None:
                counts[call_metric] += 1
            if on_call is not None:
                on_call(counts, args, kwargs)
            boundary = not stack or spans[stack[-1]][0] != layer
            if not boundary and metric is None and classify is None:
                return fn(*args, **kwargs)
            if boundary and is_fields:
                counts["fields.calls"] += 1
                counts["fields.points"] += _n_points(args, kwargs)
            name = classify(args, kwargs) if classify is not None else metric
            outer = name is not None and depth[key] == 0
            depth[key] += 1
            idx = len(spans)
            spans.append([layer, key, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                end = clock()
                spans[idx][4] = end
                depth[key] -= 1
                if outer:
                    timed[name] += end - spans[idx][3]
            if boundary and is_quadrature and isinstance(out, tuple):
                # rules return (nodes, weights): count the nodes handed out
                counts["quadrature.nodes"] += len(out[-1])
            return out

        return wrapper

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def install(self, modules):
        """Wrap the public API of ``modules``, a ``{layer: module}`` map."""
        cli = modules["cli"]
        for name, fn in cli.RUNNERS.items():
            self._timed_names[f"cli.{fn.__name__}"] = f"cli.{name}.s"
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") and f"{layer}.{attr}" not in TIMED:
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = self._wrap(layer, f"{layer}.{attr}", obj)
                    self._set(mod, attr, wrapped[id(obj)])
                elif (
                    inspect.isclass(obj)
                    and obj.__module__ == mod.__name__
                    and not issubclass(obj, BaseException)
                ):
                    self._wrap_class(layer, obj)
        # names other modules imported at load time still hold the originals
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._set(mod, attr, wrapped[id(obj)])
        for name, fn in list(cli.RUNNERS.items()):
            self._patched.append((cli.RUNNERS, name, fn))
            cli.RUNNERS[name] = wrapped[id(fn)]
        self._count_solver(modules["geodesic"])

    def _wrap_class(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__init__", "__call__"):
                continue
            key = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                self._set(cls, attr, type(raw)(self._wrap(layer, key, raw.__func__)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(layer, key, raw))

    def _count_solver(self, geodesic):
        """Read iterations and objective evaluations off every L-BFGS result."""
        counts = self.counts
        minimize = geodesic.minimize

        @functools.wraps(minimize)
        def counted(*args, **kwargs):
            res = minimize(*args, **kwargs)
            counts["geodesic.solver_iters"] += int(res.nit)
            counts["geodesic.energy_evals"] += int(res.nfev)
            return res

        self._set(geodesic, "minimize", counted)

    def uninstall(self):
        for owner, attr, value in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._patched.clear()

    def layer_self_times(self):
        """``{layer: seconds}`` of span time not covered by direct child spans."""
        child_time = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = Counter()
        for i, (layer, _, _, start, end) in enumerate(self.spans):
            out[layer] += (end - start) - child_time[i]
        return out

    def metrics(self):
        """Self times, named timings and counters (no process or overhead figures)."""
        selfs = self.layer_self_times()
        out = {f"{layer}.self_s": float(selfs[layer]) for layer in SELF_LAYERS}
        out.update({name: float(self.timed[name]) for name in TIMED_METRICS})
        out.update({name: int(self.counts[name]) for name in COUNTERS})
        return out

    def dump(self):
        """Spans and per-function call counts as JSON-ready data."""
        return {
            "span_fields": ["layer", "function", "parent", "start", "end"],
            "spans": self.spans,
            "calls": dict(self.calls),
        }
