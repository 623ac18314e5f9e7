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
