"""Every exported name, and every function the benchmark traces, resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import ncgauge

MODULES = sorted(f"ncgauge.{m.name}" for m in pkgutil.iter_modules(ncgauge.__path__))
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS_FILE = PERFBENCH / "spans.py"


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert not missing


def test_perfbench_spans_resolve():
    """The traced run looks each path up in its owner's own namespace."""
    tree = ast.parse(SPANS_FILE.read_text(encoding="utf-8"))
    spans = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "SPANS" for t in node.targets))
    assert spans
    for _, module_name, path in spans:
        owner = importlib.import_module(module_name)
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        assert attr in vars(owner), f"{module_name}.{path}"


def test_perfbench_imports_resolve():
    """Every name a benchmark script imports from the package exists."""
    wanted = [(node.module, alias.name)
              for path in sorted(PERFBENCH.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.ImportFrom) and node.level == 0
              and (node.module or "").split(".")[0] == "ncgauge"
              for alias in node.names]
    assert wanted
    for module_name, attr in wanted:
        assert hasattr(importlib.import_module(module_name), attr), f"{module_name}.{attr}"


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but neither reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = [(alias.asname or alias.name).split(".")[0]
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {value for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                for value in ast.literal_eval(node.value)}
    return [name for name in imported if name not in used | exported]


def test_src_imports_are_used():
    """No module keeps an import that nothing in it reads (no linter runs on the package)."""
    package = Path(ncgauge.__file__).parent
    unused = {path.name: _unused_imports(path.read_text(encoding="utf-8"))
              for path in sorted(package.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}


def test_unused_import_check_sees_a_dead_import():
    assert _unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == ["math", "path"]
