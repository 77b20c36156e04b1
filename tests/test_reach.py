"""Code nothing calls is deleted: every function, class and method defined
in ``src/qcurv``, and every name a module there assigns, is referenced by
the package or by the benchmark."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# definitions that only tests reach, each with the reason it stays
ALLOWED = {
    # the exact jet of a constant-curvature metric: the reference input that
    # test_cnc, test_geodesic and test_pohozaev build their metrics from
    "constant_curvature",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _trees(pattern):
    return [ast.parse(path.read_text(), str(path)) for path in sorted(ROOT.glob(pattern))]


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _defined(tree):
    """The functions, classes and methods of a module, and the names its
    top-level statements assign; dunders and ``_`` are left out."""
    names = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    names.add(node.id)
    return {name for name in names if name != "_" and not _is_dunder(name)}


def _parameters(func):
    args = func.args
    every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
    return {a.arg for a in every if a is not None}


def _used(node, shadowed, used):
    """Add to ``used`` the names ``node`` refers to.  A load of a name that
    is a parameter of an enclosing function reads that parameter, not a
    module's definition, and does not count."""
    if isinstance(node, _FUNCTIONS):
        # defaults and decorators are read in the enclosing scope
        for child in node.args.defaults + [d for d in node.args.kw_defaults if d is not None]:
            _used(child, shadowed, used)
        for child in getattr(node, "decorator_list", []):
            _used(child, shadowed, used)
        inner = shadowed | _parameters(node)
        body = node.body if isinstance(node.body, list) else [node.body]
        for child in body:
            _used(child, inner, used)
        return
    if isinstance(node, ast.Name):
        if isinstance(node.ctx, ast.Load) and node.id not in shadowed:
            used.add(node.id)
    elif isinstance(node, ast.Attribute):
        used.add(node.attr)
    elif isinstance(node, ast.alias):
        used.update(node.name.split("."))
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        # a name the tracer wraps by its dotted path
        if _DOTTED.fullmatch(node.value):
            used.update(node.value.split("."))
    for child in ast.iter_child_nodes(node):
        _used(child, shadowed, used)


def _unreferenced():
    src = _trees("src/qcurv/*.py")
    defined = set().union(*(_defined(tree) for tree in src))
    used = set()
    for tree in src + _trees("perfbench/*.py"):
        _used(tree, frozenset(), used)
    return defined - used


def test_every_src_definition_is_referenced():
    assert _unreferenced() == ALLOWED
