"""Every module-level import in the package is used (stdlib ast, no linter)."""
import ast
import pathlib

import pytest

import templevy

SOURCES = sorted(pathlib.Path(templevy.__file__).parent.glob("*.py"))


def _unused_imports(tree: ast.Module) -> list:
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[(a.asname or a.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # names re-exported through __all__ count as used
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


@pytest.mark.parametrize("path", [p for p in SOURCES
                                  if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    # the package __init__ re-exports by design and is left out
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_detector_flags_an_unused_import():
    tree = ast.parse("import math\nimport os\nx = math.pi\n")
    assert _unused_imports(tree) == ["os (line 2)"]
