"""Every module-level import in ewb is used by its module, re-exported
through __all__, or a name the benchmark's tracer wraps there."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ewb"
TRACING = ROOT / "bench" / "tracing.py"


def _wrapped() -> set:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {(module, attr) for module, attr, *_ in tracing.WRAPPED}


def _unused_imports(tree: ast.Module) -> list:
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_every_module_level_import_is_used():
    wrapped = _wrapped()
    unused = [
        f"ewb.{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _unused_imports(ast.parse(path.read_text()))
        if (f"ewb.{path.stem}", name) not in wrapped
    ]
    assert unused == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nimport sys\nfrom math import pi, tau\nprint(sys.argv, tau)\n")
    assert _unused_imports(tree) == ["os", "pi"]
