"""Code nothing calls is deleted: every function, class and method defined
in ``src/qcurv`` is referenced by the package or by the benchmark."""

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


def _trees(pattern):
    return [ast.parse(path.read_text(), str(path)) for path in sorted(ROOT.glob(pattern))]


def _unreferenced():
    src = _trees("src/qcurv/*.py")
    defined = {
        node.name
        for tree in src
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }
    used = set()
    for tree in src + _trees("perfbench/*.py"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update(node.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                # a name the tracer wraps by its dotted path
                if _DOTTED.fullmatch(node.value):
                    used.update(node.value.split("."))
    return defined - used


def test_every_src_definition_is_referenced():
    assert _unreferenced() == ALLOWED
