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


SRC = ROOT / "src" / "ncgauge"
COMMAND_MODULES = ("spectral", "gauge", "localize", "cli")


def _half_tolerances(source: str) -> list[int]:
    """Lines of the ``from_residual`` calls that pass a literal 0.5, an integer identity's."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "from_residual"
            and any(isinstance(arg, ast.Constant) and arg.value == 0.5
                    for arg in [*node.args, *(k.value for k in node.keywords)])]


def _tol_parameters(source: str) -> list[str]:
    """Names of the functions that take a parameter named ``tol``."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and "tol" in {a.arg for a in [*node.args.posonlyargs, *node.args.args,
                                          *node.args.kwonlyargs]}]


def test_integer_identities_go_through_one_constructor():
    """``CheckRecord.identity`` makes every integer identity, so each is fixed under --tol."""
    found = {path.name: _half_tolerances(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_command_modules_take_no_tol_parameter():
    """Records are built at their rung; only ``Report.override_tolerance`` applies --tol."""
    found = {name: _tol_parameters((SRC / f"{name}.py").read_text(encoding="utf-8"))
             for name in COMMAND_MODULES}
    assert {name: funcs for name, funcs in found.items() if funcs} == {}


def test_tolerance_guards_see_their_mutants():
    assert _half_tolerances("r = CheckRecord.from_residual('n', 's', abs(a - b), 0.5, S)\n"
                            "q = CheckRecord.from_residual('n', 's', x, tolerance=0.5)\n"
                            "ok = CheckRecord.from_residual('n', 's', x, 1e-8)\n") == [1, 2]
    assert _tol_parameters("def f(x, tol=None):\n    return x\n\n"
                           "class C:\n    def g(self, *, tol):\n        pass\n\n"
                           "def h(rtol):\n    pass\n") == ["f", "g"]


def _calls_to(source: str, name: str) -> list[int]:
    """Lines of the calls to a function or method named ``name``."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "attr", None), getattr(node.func, "id", None))]


def _roots_of_unity(source: str) -> list[int]:
    """Lines that build a root of unity: an ``exp`` of a ``2j * pi`` product, or a ``** arange``."""
    def is_two_pi_i(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                and isinstance(node.left, ast.Constant) and node.left.value == 2j
                and "pi" in (getattr(node.right, "attr", None), getattr(node.right, "id", None)))

    tree = ast.parse(source)
    exps = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and "exp" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
            and any(is_two_pi_i(sub) for arg in node.args for sub in ast.walk(arg))]
    powers = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
              and isinstance(node.right, ast.Call) and "arange" in (
                  getattr(node.right.func, "attr", None), getattr(node.right.func, "id", None))]
    return sorted(exps + powers)


def test_no_module_forms_matrix_powers():
    """Clock and shift powers are read from ``torus.word_layout`` or rolled, never multiplied up."""
    found = {path.name: _calls_to(path.read_text(encoding="utf-8"), "matrix_power")
             for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_only_torus_builds_a_root_of_unity():
    """Every rational zeta^k is read from torus's residue table; ``torus`` imports no ``linalg``."""
    found = {path.name: _roots_of_unity(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) if path.name != "torus.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
    torus = ast.parse((SRC / "torus.py").read_text(encoding="utf-8")).body
    imported = {node.module for node in torus if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in torus if isinstance(node, ast.Import) for alias in node.names}
    assert not imported & {"linalg", "itertools"}


def test_root_of_unity_guards_see_their_mutants():
    assert _calls_to("w = np.linalg.matrix_power(c, 3)\nv = matrix_power(c, 2)\n"
                     "u = c @ c\n", "matrix_power") == [1, 2]
    assert _roots_of_unity("z = np.exp(2j * np.pi * p / q)\n"
                           "c = np.diag(z ** np.arange(q))\n"
                           "w = cmath.exp(2j * math.pi * k / q)\n"
                           "y = np.exp(1j * t)\n"
                           "x = z ** 3\n") == [1, 2, 3]
