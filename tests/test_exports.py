"""Every exported name, and every function the benchmark traces, resolves.

The benchmark's scripts are read here, never edited or imported: the record
lists it pins must be the ones the commands print, so a change to a list
fails here before a benchmark run.
"""

import ast
import importlib
import json
import pkgutil
import re
import types
from pathlib import Path

import pytest

import ncgauge
from ncgauge import cli

MODULES = sorted(f"ncgauge.{m.name}" for m in pkgutil.iter_modules(ncgauge.__path__))
ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SPANS_FILE = PERFBENCH / "spans.py"


def _assigned(path: Path, name: str):
    """The literal value a benchmark script assigns to a top-level ``name``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == name for t in node.targets))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert not missing


def _declared() -> set[str]:
    """The union of the modules' ``__all__``."""
    return {name for module in MODULES
            for name in getattr(importlib.import_module(module), "__all__", [])}


def test_package_namespace_is_the_union_of_module_alls():
    """Each module declares its public names once; the package re-exports exactly those."""
    public = {name for name, value in vars(ncgauge).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == _declared()


def _reads(source: str) -> set[str]:
    """Names and attributes a module reads, outside the definitions of the same name."""
    reads = set()

    def visit(node, inside: frozenset):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name not in inside:
                reads.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), frozenset())
    return reads


def test_every_exported_name_is_read():
    """Nothing is public that no code, test, benchmark or the README reads: delete it instead."""
    sources = [path for folder in ("src", "tests", "perfbench")
               for path in sorted((ROOT / folder).rglob("*.py"))]
    read = set().union(*(_reads(path.read_text(encoding="utf-8")) for path in sources))
    read |= set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    assert sorted(_declared() - read) == []


def test_read_check_skips_a_name_read_only_inside_its_own_definition():
    source = "def f(n):\n    return f(n - 1)\n\nclass C:\n    x = C\n\nprint(g.attr)\n"
    assert _reads(source) == {"n", "print", "g", "attr"}


def test_perfbench_spans_resolve():
    """The traced run looks each path up in its owner's own namespace."""
    spans = _assigned(SPANS_FILE, "SPANS")
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


@pytest.mark.parametrize("argv,pinned", [
    (["check", "hs:N=3"], "CHECK_RECORDS"),
    (["localize", "ym:k=2,N=2"], "LOCALIZE_RECORDS"),
    (["fluctuate", "hs:N=3", "random:terms=3"], "RANDOM_FLUCTUATION_RECORDS"),
    (["fluctuate", "hs:N=3", "pure"], "PURE_FLUCTUATION_RECORDS"),
])
def test_commands_print_the_record_lists_the_benchmark_pins(capsys, argv, pinned):
    assert cli.main(argv) == 0
    names = [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]]
    assert names == _assigned(PERFBENCH / "jobs.py", pinned)


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
