"""End-to-end runs of the command line interface."""

import csv
import importlib
import io
import json
import os
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import ncgauge
from ncgauge import cli
from ncgauge.cli import main
from ncgauge.gauge import (covariance_residual, gauge_field, gauge_transform_field,
                           random_perturbation)
from ncgauge.linalg import commutator, commutator_map_norm, op_norm
from ncgauge.models import load_model, triple_from_config
from ncgauge.parsing import parse_sphere
from ncgauge.reporting import CheckRecord, Report
from ncgauge.spectral import OneForm, compute_aj
from ncgauge.staralg import AlgebraError, NonCommutative, NotClosed, generating_set, random_unitary
from ncgauge.torus import rational_mode
from conftest import c_d_certificate
from test_spectral import CONFIG_FIXTURES
from test_toric import continuity_report

localize_module = importlib.import_module("ncgauge.localize")
gauge_module = importlib.import_module("ncgauge.gauge")
linalg_module = importlib.import_module("ncgauge.linalg")
spectral_module = importlib.import_module("ncgauge.spectral")
staralg_module = importlib.import_module("ncgauge.staralg")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_schema():
    path = resources.files("ncgauge").joinpath("schema/report.schema.json")
    return json.loads(path.read_text())


def test_check_hs_passes_and_validates(capsys):
    code, out, _ = run(capsys, "check", "hs:N=2")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(instance=doc, schema=report_schema())
    assert doc["passed"] is True
    assert doc["schema"] == "ncgauge.report/1"
    assert doc["context"]["gauge"]["dim"] == 3


def test_check_unknown_parameter_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "hs:bogus=2")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_preset_value_is_bad_input(capsys, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from arithmetic on the value
        code, out, err = run(capsys, "check", f"ym:k=2,N=2,lam={value}")
    assert (code, out) == (2, "")
    assert err == f"error: non-finite value {value!r} for 'lam'\n"


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
def test_non_finite_config_entry_is_bad_input(capsys, tmp_path, value):
    config = tmp_path / "dirac.json"
    # json.load accepts the NaN and Infinity constants
    config.write_text('{"algebra": {"kind": "diagonal", "n": 2}, "representation": "defining", '
                      f'"dirac": {{"re": [[0, {value}], [{value}, 0]]}}, '
                      '"real_structure": {"preset": "conjugation"}}')
    code, out, err = run(capsys, "check", str(config))
    assert (code, out) == (2, "")
    assert err == "error: dirac entries must be finite\n"


@pytest.mark.parametrize("argv,name", [
    (("check", "hs:N=2.5"), "N"),
    (("check", "hs:N=2,seed=1.5"), "seed"),
    (("check", "ym:k=2.0,N=2"), "k"),
    (("check", "orbifold:q=3,p=1.5"), "p"),
    (("check", "orbifold:q=2.5"), "q"),
    (("check", "orbifold:q=3,m=1e0"), "m"),
    (("fluctuate", "hs:N=2", "random:terms=2.5"), "terms"),
    (("fluctuate", "hs:N=2", "pure:seed=0.5"), "seed"),
])
def test_non_integer_parameter_is_bad_input(capsys, argv, name):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: parameter {name!r} must be an integer")


@pytest.mark.parametrize("field,name,value", [
    ({"algebra": {"kind": "diagonal", "n": 2.7}}, "n", "2.7"),
    ({"algebra": {"kind": "blocks", "sizes": [1, 1.5]}}, "sizes", "1.5"),
    ({"dirac": {"preset": "random-selfadjoint", "seed": 1.5}}, "seed", "1.5"),
    ({"signs": {"j_squared": 1.9}}, "j_squared", "1.9"),
    ({"signs": {"dirac_commute": -1.0}}, "dirac_commute", "-1.0"),
    # JSON booleans are Python ints, but no config integer
    ({"algebra": {"kind": "diagonal", "n": True}}, "n", "True"),
    ({"algebra": {"kind": "blocks", "sizes": [1, True]}}, "sizes", "True"),
    ({"signs": {"j_squared": True}}, "j_squared", "True"),
    ({"dirac": {"preset": "random-selfadjoint", "seed": False}}, "seed", "False"),
])
def test_non_integer_config_field_is_bad_input(capsys, tmp_path, field, name, value):
    """Config integers are checked, never truncated: 2.7 is not read as 2."""
    doc = {"algebra": {"kind": "diagonal", "n": 2}, "representation": "defining",
           "dirac": {"preset": "zero"}, "real_structure": {"preset": "conjugation"}}
    config = tmp_path / "fields.json"
    config.write_text(json.dumps({**doc, **field}))
    code, out, err = run(capsys, "check", str(config))
    assert (code, out) == (2, "")
    assert err == f"error: parameter {name!r} must be an integer, got {value}\n"


@pytest.mark.parametrize("argv,message", [
    (("check", "hs:N=2", "--seed", "-1"), "--seed must be non-negative, got -1"),
    (("check", "hs:N=2,seed=-3"), "parameter 'seed' must be non-negative, got -3"),
    (("fluctuate", "hs:N=2", "pure:seed=-1"), "parameter 'seed' must be non-negative, got -1"),
    (("fluctuate", "hs:N=2", "random:terms=2,seed=-5"),
     "parameter 'seed' must be non-negative, got -5"),
    (("check", {"dirac": {"preset": "random-selfadjoint", "seed": -1}}),
     "parameter 'seed' must be non-negative, got -1"),
])
def test_negative_seed_is_bad_input(capsys, tmp_path, argv, message):
    # numpy's generators reject a negative seed with a bare ValueError, which would exit 3
    argv = [write_config(tmp_path, **a) if isinstance(a, dict) else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_unwritable_out_path_is_bad_input(capsys, tmp_path):
    path = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "check", "hs:N=2", "--out", str(path))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: cannot write --out: ")
    assert not path.exists()


def write_config(tmp_path, **fields):
    doc = {"algebra": {"kind": "diagonal", "n": 2}, "representation": "defining",
           "dirac": {"preset": "zero"}, "real_structure": {"preset": "conjugation"}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**doc, **fields}))
    return str(config)


@pytest.mark.parametrize("algebra", [
    {"kind": "full", "n": 0}, {"kind": "diagonal", "n": -2}, {"kind": "blocks", "sizes": []},
    {"kind": "blocks", "sizes": [2, -1]}, {"kind": "blocks", "sizes": 3}, [2],
])
def test_bad_algebra_size_is_bad_input(capsys, tmp_path, algebra):
    code, out, err = run(capsys, "check", write_config(tmp_path, algebra=algebra))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("signs", [[1], 1, "+1"])
def test_non_object_signs_are_bad_input(capsys, tmp_path, signs):
    code, out, err = run(capsys, "check", write_config(tmp_path, signs=signs))
    assert (code, out, err) == (2, "", "error: 'signs' must be an object\n")


@pytest.mark.parametrize("entries", [
    {"re": [["a", "b"], ["c", "d"]]}, {"re": [[0.0, 1.0], [1.0]]}, {"re": {"x": 1}},
    {"re": [[0.0, 1.0], [1.0, 0.0]], "im": [[0.0, 1.0]]},
])
def test_non_numeric_config_entries_are_bad_input(capsys, tmp_path, entries):
    # an "im" of another shape must not be broadcast against "re"
    code, out, err = run(capsys, "check", write_config(tmp_path, dirac=entries))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: dirac ")


def test_bare_value_error_from_a_handler_is_a_program_fault(capsys, monkeypatch):
    # a shape bug in broadcasting code raises a bare ValueError: not bad input
    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(cli, "check_axioms", broken)
    code, out, err = run(capsys, "check", "hs:N=2")
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1 and err.startswith("internal error: ValueError(")


@pytest.mark.parametrize("terms", ["0", "-1"])
def test_perturbation_needs_a_term(capsys, terms):
    code, out, err = run(capsys, "fluctuate", "hs:N=2", f"random:terms={terms}")
    assert (code, out) == (2, "")
    assert err == f"error: parameter 'terms' must be at least 1, got {terms}\n"


def test_check_hopping_fails_honestly(capsys):
    code, out, _ = run(capsys, "check", "ym:k=2,N=2,lam=0.1")
    assert code == 1
    doc = json.loads(out)
    jsonschema.validate(instance=doc, schema=report_schema())
    assert doc["passed"] is False
    failed = {c["name"] for c in doc["checks"] if not c["passed"]}
    assert "order-one-condition" in failed
    assert "real-structure-dirac-sign" not in failed


def test_check_witnesses_reproduce_the_failing_residuals(capsys):
    spec = "ym:k=2,N=2,lam=0.1"
    _, out, _ = run(capsys, "check", spec)
    doc = json.loads(out)
    witnesses = doc["context"]["witnesses"]
    # only a failing record keeps a witness
    assert list(witnesses) == ["order-one-condition", "commutes-with-one-forms"]
    records = {c["name"]: c for c in doc["checks"]}
    t = load_model(spec)
    # the order-one table runs on the certified generating set g: the witness indexes g
    i, j = witnesses["order-one-condition"]
    gens = generating_set(t.algebra)
    a, b = (gens[k] / np.linalg.norm(gens[k]) for k in (i, j))  # scaled to unit norm
    residual = op_norm(commutator(t.dirac_commutator(a), t.b_opposite(b)))
    assert residual == pytest.approx(records["order-one-condition"]["residual"], rel=1e-12)
    # the larger of two map norms on A, maximised over A_J's basis: the witness is the worst p
    [i] = witnesses["commutes-with-one-forms"]
    p = t.pi(compute_aj(t).basis[i])
    residual = max(commutator_map_norm(p, t.pi_images),
                   commutator_map_norm(p, commutator(t.dirac, t.pi_images)))
    assert residual == pytest.approx(records["commutes-with-one-forms"]["residual"], rel=1e-12)
    assert not records["order-one-condition"]["passed"]
    assert not records["commutes-with-one-forms"]["passed"]


def test_passing_records_keep_no_witness(capsys):
    code, out, _ = run(capsys, "check", "ym:k=3,N=3")
    assert code == 0
    assert "witnesses" not in json.loads(out)["context"]


@pytest.mark.parametrize("spec", ["hs:N=2", "hs:N=6", "ym:k=3,N=3", "ym:k=2,N=2,lam=0.1",
                                  "ym:k=2,N=1,lam=0.3"])
def test_check_forms_no_one_form_space(capsys, monkeypatch, count_calls, spec):
    """commutes-with-one-forms comes from two map norms on A, so check never builds Omega^1."""
    calls, triples = [], []
    real_space, real_load = spectral_module.one_form_space, cli.load_model

    def spy(triple):
        calls.append(triple)
        return real_space(triple)

    def loading(*args, **kwargs):
        triples.append(real_load(*args, **kwargs))
        return triples[-1]

    for module in [m for n, m in sys.modules.items() if n.startswith("ncgauge")]:
        if getattr(module, "one_form_space", None) is real_space:
            monkeypatch.setattr(module, "one_form_space", spy)
    monkeypatch.setattr(cli, "load_model", loading)
    closures = count_calls(spectral_module, "_graded_closure")  # Omega^1 and C_D, on H
    code, out, _ = run(capsys, "check", spec)
    assert code == (1 if "lam" in spec else 0)
    assert "commutes-with-one-forms" in {c["name"] for c in json.loads(out)["checks"]}
    assert calls == []
    assert len(triples) == 1 and closures == []


def non_closed_aj_config(tmp_path):
    # conjugation on the full M_2 puts every a with a = a^T into A_J: not a *-algebra
    config = tmp_path / "non_closed.json"
    config.write_text(json.dumps({
        "algebra": {"kind": "full", "n": 2}, "representation": "defining",
        "dirac": {"preset": "zero"}, "real_structure": {"preset": "conjugation"}}))
    return str(config)


def reject(constant):
    raise ValueError(f"non-strict JSON constant {constant}")


def test_check_reports_a_non_closed_aj(capsys, tmp_path):
    code, out, err = run(capsys, "check", non_closed_aj_config(tmp_path))
    assert code == 1
    assert err == ""
    doc = json.loads(out)
    records = {c["name"]: c for c in doc["checks"]}
    assert doc["checks"][-1]["name"] == "subalgebra-closure"
    assert not records["subalgebra-closure"]["passed"]
    assert "not closed" in doc["context"]["closure_error"]

    strict = json.loads(out, parse_constant=reject)
    closure = strict["checks"][-1]
    # the residual is the one the failing closure check measured, above its tolerance
    assert closure["tolerance"] < closure["residual"] < 10
    assert "gauge" not in doc["context"]


def test_localize_reports_a_non_closed_aj(capsys, tmp_path):
    # a failed check (exit 1) with a record, not a traceback
    code, out, err = run(capsys, "localize", non_closed_aj_config(tmp_path))
    assert code == 1
    assert err == ""
    doc = json.loads(out, parse_constant=reject)
    jsonschema.validate(instance=doc, schema=report_schema())
    [closure] = doc["checks"]
    assert closure["name"] == "subalgebra-closure" and not closure["passed"]
    assert closure["tolerance"] < closure["residual"] < 10
    assert "not closed" in doc["context"]["closure_error"]
    assert "localization" not in doc["context"]


@pytest.mark.parametrize("fault", [NonCommutative("algebra of dim 2 has center of dim 1"),
                                   AlgebraError("spectral refinement found 1 parts for an "
                                                "algebra of dim 2, or a part outside it")])
def test_algebra_error_exits_3(capsys, monkeypatch, fault):
    # minimal_projections' failures are program faults, not failed checks
    def broken(*args, **kwargs):
        raise fault

    monkeypatch.setattr(localize_module, "minimal_projections", broken)
    code, out, err = run(capsys, "localize", "hs:N=2")
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("internal error:")
    assert type(fault).__name__ in err


@pytest.mark.parametrize("fault", [np.linalg.LinAlgError("SVD did not converge"), MemoryError(),
                                   KeyError("basis"), TypeError("unsupported operand"),
                                   IndexError("list index out of range"),
                                   ZeroDivisionError("division by zero"), RuntimeError("bug")])
def test_program_fault_exits_3(capsys, monkeypatch, fault):
    # LinAlgError is a ValueError, and must not read as bad input (exit 2); any other
    # unexpected exception must not escape as a traceback with exit 1, a failed check
    def broken(*args, **kwargs):
        raise fault

    monkeypatch.setattr(cli, "check_axioms", broken)
    code, out, err = run(capsys, "check", "hs:N=2")
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("internal error:")
    assert type(fault).__name__ in err


def test_non_finite_report_exits_3(capsys, monkeypatch):
    # strict JSON has no infinity: a non-finite number in a report is a fault, not a verdict
    def broken(*args, **kwargs):
        rep = Report("axioms")
        rep.add(CheckRecord("broken", "a record with no finite residual", float("inf"), 1e-8,
                            False))
        return rep

    monkeypatch.setattr(cli, "check_axioms", broken)
    code, out, err = run(capsys, "check", "hs:N=2")
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("internal error:")
    assert "NonFiniteReport" in err


STARTUP_SCRIPT = """
import contextlib, io, json, sys
from ncgauge.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(main(argv))
print(json.dumps({"codes": codes, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


def test_runtime_never_imports_scipy():
    # scipy is a test-only oracle: importing it would double the start-up of every command
    argvs = [["check", "hs:N=2"], ["localize", "hs:N=2"],
             ["fluctuate", "hs:N=3", "random:terms=2"], ["toric-scan", "s3", "1", "2", "0.5"]]
    env = dict(os.environ, PYTHONPATH=str(Path(ncgauge.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", STARTUP_SCRIPT, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == {"codes": [0, 0, 0, 0], "scipy": []}


def test_check_orbifold(capsys):
    code, out, _ = run(capsys, "check", "orbifold:q=2,m=1")
    assert code == 0
    doc = json.loads(out)
    assert doc["context"]["algebra_dim"] == 4
    assert doc["context"]["center_dim"] == 1


@pytest.mark.parametrize("q,m", [(4, 2), (3, 3)])
def test_check_large_orbifold_under_memory_cap(run_capped, q, m):
    # an M x M nullspace factor here would need 16 GiB (q=4, m=2); the run
    # is capped at 4 GiB in a child process so that it cannot take the host's
    proc = run_capped("-m", "ncgauge.cli", "check", f"orbifold:q={q},p=1,m={m}")
    assert proc.returncode == 0, proc.stderr[-2000:]
    doc = json.loads(proc.stdout)
    assert doc["context"]["algebra_dim"] == m * q * q
    assert doc["context"]["center_dim"] == m


def test_localize_ym(capsys):
    code, out, _ = run(capsys, "localize", "ym:k=2,N=2")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(instance=doc, schema=report_schema())
    assert doc["context"]["localization"]["fiber_dims"] == [4, 4]
    assert doc["context"]["omega_bundle"]["cd_dim"] == 8
    assert doc["context"]["group_bundle"]["gauge_dim"] == 6


def test_localize_needs_a_triple(capsys):
    code, _, err = run(capsys, "localize", "orbifold:q=2,m=1")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("spec", ["zero", "pure", "random", "random:terms=3,seed=4"])
def test_fluctuate_specs(capsys, spec):
    code, out, _ = run(capsys, "fluctuate", "hs:N=2", spec)
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(instance=doc, schema=report_schema())
    assert doc["passed"] is True


def test_fluctuate_unknown_spec(capsys):
    code, _, err = run(capsys, "fluctuate", "hs:N=2", "wiggle")
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "fluctuate", "hs:N=2", "pure:junk=1")
    assert code == 2


@pytest.mark.parametrize("argv,message", [
    (("check", "hs:N=2,N=3"), "duplicate parameter 'N'"),
    (("fluctuate", "hs:N=2", "random:terms=2,terms=3"), "duplicate parameter 'terms'"),
    (("check", '{"preset": "hs", "params": {"N": 2, "N": 3}}'),
     "duplicate key 'N' in config document"),
])
def test_a_repeated_key_is_bad_input(capsys, tmp_path, argv, message):
    """A preset, a perturbation spec or a config document that repeats a key exits 2."""
    config = tmp_path / "repeated.json"
    config.write_text(argv[-1])
    argv = [str(config) if a.startswith("{") else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("doc,message", [
    ({"preset": "hs", "params": {"N": "2,seed=5"}},
     "parameter 'N' must be an integer, got '2,seed=5'"),
    ({"preset": "hs", "params": {"N": "2"}}, "parameter 'N' must be an integer, got '2'"),
    ({"preset": "hs:N=3"}, "unknown preset 'hs:N=3' (known: hs, ym, orbifold)"),
    ({"preset": "ym", "params": {"lam": "0.3"}},
     "parameter 'lam' must be a finite number, got '0.3'"),
    ({"preset": "ym", "params": {"lam": True}},
     "parameter 'lam' must be a finite number, got True"),
])
def test_preset_params_are_values_not_preset_text(capsys, tmp_path, doc, message):
    """A config's preset ``params`` are checked as the preset parser checks its values."""
    config = tmp_path / "preset.json"
    config.write_text(json.dumps(doc))
    assert run(capsys, "check", str(config)) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("params,spec", [({"N": 2}, "hs:N=2"),
                                         ({"k": 2, "N": 2, "lam": 0.3}, "ym:k=2,N=2,lam=0.3")])
def test_preset_params_load_the_preset_triple(tmp_path, params, spec):
    config = tmp_path / "preset.json"
    config.write_text(json.dumps({"preset": spec.partition(":")[0], "params": params}))
    got, want = load_model(str(config)), load_model(spec)
    for a, b in [(got.algebra.basis, want.algebra.basis), (got.pi_images, want.pi_images),
                 (got.dirac, want.dirac), (got.real_structure.kernel, want.real_structure.kernel)]:
        assert np.array_equal(a, b)


def test_toric_scan_csv_default(capsys):
    code, out, err = run(capsys, "toric-scan", "s3", "1", "2", "0.2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "chi,r,s,x,norm,stratum,fiber_dim"
    assert len(lines) == 10  # 9 grid points at h = 0.2 plus the header
    # the summary still lands on stderr
    assert "toric-scan" in err


def test_toric_scan_json_and_trivial_mode(capsys):
    code, out, _ = run(capsys, "toric-scan", "s3", "1", "1", "0.3",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(instance=doc, schema=report_schema())
    assert all(row["fiber_dim"] == 1 for row in doc["context"]["rows"])
    assert doc["context"]["strata"]["dims"]["Interior"] == [1]


def test_toric_scan_undefined_jump_ratio_is_strict_json(capsys):
    # cos 2 chi has norm 1 at both coarse points of h = 1.5 and 0 between them
    code, out, _ = run(capsys, "toric-scan", "s3", "1", "1", "1.5", "--poly", "a*ad - b*bd",
                       "--format", "json")
    assert code == 1
    doc = json.loads(out, parse_constant=reject)
    jsonschema.validate(instance=doc, schema=report_schema())
    stats = doc["context"]["stats"]
    assert stats["max_jump"] == 0.0 and stats["max_jump_half_step"] > 0.5
    assert stats["jump_ratio"] is None
    record = doc["checks"][-1]
    assert record["name"] == "profile-jump-halving" and not record["passed"]
    assert record["tolerance"] == 0.2 < record["residual"]


def test_toric_scan_and_continuity_report_share_the_jump_record(capsys):
    code, out, _ = run(capsys, "toric-scan", "s3", "1", "2", "0.2", "--format", "json")
    assert code == 0
    [scan] = [c for c in json.loads(out)["checks"] if c["name"] == "profile-jump-halving"]
    family = continuity_report([parse_sphere("a + b", rational_mode(1, 2))], 0.2, 1, 2)
    [record] = family.to_dict()["checks"]
    assert record["name"] == "jump-halving-0"
    assert {**record, "name": scan["name"]} == scan


def test_toric_scan_tol_is_only_recorded(capsys):
    # integer identities keep 0.5 and the jump band keeps 0.2 under any --tol
    code, out, _ = run(capsys, "toric-scan", "s4", "1", "2", "0.4", "--format", "json",
                       "--tol", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["context"]["tol_override"] == 0.0
    assert {c["name"]: c["tolerance"] for c in doc["checks"]} == {
        "stratum-EdgeAlpha": 0.5, "stratum-EdgeBeta": 0.5, "stratum-Interior": 0.5,
        "stratum-Pole": 0.5, "profile-jump-halving": 0.2}


def test_toric_scan_s4_poly_with_x(capsys):
    code, out, _ = run(capsys, "toric-scan", "s4", "1", "2", "0.4",
                       "--poly", "a + x")
    assert code == 0
    assert out.splitlines()[0] == "chi,psi,r,s,x,norm,stratum,fiber_dim"


def test_toric_scan_rejects_x_on_s3(capsys):
    code, out, err = run(capsys, "toric-scan", "s3", "1", "2", "0.3",
                         "--poly", "x")
    assert (code, out) == (2, "")
    assert err == "error: 3-sphere elements cannot contain the x letter\n"


def test_toric_scan_parse_error(capsys):
    code, _, err = run(capsys, "toric-scan", "s3", "1", "2", "0.3",
                       "--poly", "a +")
    assert code == 2
    assert "error:" in err


NON_FINITE_POLYS = ["1e400*a", "(1e400i)*a", "1e300*1e300*a", "10^400*a", "(2i)^2000*a",
                    "1e200*a*1e200"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("poly", NON_FINITE_POLYS)
def test_toric_scan_non_finite_coefficient_is_bad_input(capsys, poly, fmt):
    """An overflowing literal, power or product is refused, not pruned to a zero polynomial."""
    code, out, err = run(capsys, "toric-scan", "s3", "1", "2", "0.5", "--poly", poly,
                         "--format", fmt)
    assert (code, out, err) == (2, "", "error: a coefficient is not a finite number\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_toric_scan_large_finite_coefficient_is_kept(capsys, fmt):
    code, out, _ = run(capsys, "toric-scan", "s3", "1", "2", "0.5", "--poly", "1e300*a",
                       "--format", fmt)
    assert code == 0
    rows = json.loads(out)["context"]["rows"] if fmt == "json" else out.splitlines()[1:]
    assert rows and "1e+300" in str(rows)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("poly,power,scale", [("1e-15*a", 1, 1e-15), ("1e-7*a*1e-7*a", 2, 1e-14)])
def test_toric_scan_small_coefficient_is_kept(capsys, poly, power, scale, fmt):
    """A small coefficient that no cancellation made is not pruned: the norm is scale r^power."""
    code, out, _ = run(capsys, "toric-scan", "s3", "1", "2", "0.5", "--poly", poly,
                       "--format", fmt)
    assert code == 0
    rows = (json.loads(out)["context"]["rows"] if fmt == "json"
            else list(csv.DictReader(io.StringIO(out))))
    assert len(rows) == 4
    for row in rows:
        want = scale * float(row["r"]) ** power
        assert want > 0 and abs(float(row["norm"]) - want) <= 1e-12 * want


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_toric_scan_cancelled_x_is_the_zero_polynomial(capsys, fmt):
    """What cancellation leaves is pruned, so s3 sees no x letter and every norm is 0."""
    code, out, _ = run(capsys, "toric-scan", "s3", "1", "2", "0.5",
                       "--poly", "0.1*x + 0.2*x - 0.3*x", "--format", fmt)
    assert code == 0
    rows = (json.loads(out)["context"]["rows"] if fmt == "json"
            else list(csv.DictReader(io.StringIO(out))))
    assert [float(row["norm"]) for row in rows] == [0.0] * 4


@pytest.mark.parametrize("argv,message", [
    (("check", "hs:N=2", "--tol", "abc"), "argument --tol: invalid float value: 'abc'"),
    (("check", "hs:N=2", "--tol", "-inf"), "argument --tol: expected one argument"),
    (("localize", "hs:N=2", "--seed", "x"), "argument --seed: invalid int value: 'x'"),
    (("fluctuate", "hs:N=2", "--tol", "-inf"), "argument --tol: expected one argument"),
    (("toric-scan", "s3", "1", "2", "abc"), "argument h: invalid float value: 'abc'"),
    (("toric-scan", "s3", "1", "2", "0.5", "--seed", "x"),
     "argument --seed: invalid int value: 'x'"),
    (("check",), "the following arguments are required: model"),
    (("localize",), "the following arguments are required: model"),
    (("fluctuate",), "the following arguments are required: model"),
    ((), "the following arguments are required: command"),
    (("check", "hs:N=2", "extra"), "unrecognized arguments: extra"),
])
def test_argument_errors_are_one_line_bad_input(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ncgauge check")


def test_toric_scan_bad_mode(capsys):
    code, _, err = run(capsys, "toric-scan", "s3", "2", "4", "0.3")
    assert code == 2


@pytest.mark.parametrize("h", ["nan", "inf", "0", "-0.1"])
def test_toric_scan_bad_grid_step(capsys, h):
    code, out, err = run(capsys, "toric-scan", "s3", "1", "3", h)
    assert code == 2
    assert out == ""
    assert err == "error: grid step must be a positive finite number\n"


@pytest.mark.parametrize("h", ["5e-324", "1e-9"])
def test_toric_scan_grid_too_fine(capsys, h):
    code, out, err = run(capsys, "toric-scan", "s3", "1", "3", h)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: grid step ")
    assert "1000000" in err
    assert "Traceback" not in err


def reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def covariance_record(capsys, model):
    """Exit code and strictly parsed ``gauge-covariance`` record of ``fluctuate model random``."""
    code, out, _ = run(capsys, "fluctuate", model, "random")
    doc = json.loads(out, parse_constant=reject_constant)
    jsonschema.validate(instance=doc, schema=report_schema())
    return code, next(c for c in doc["checks"] if c["name"] == "gauge-covariance")


def test_gauge_covariance_reports_the_measured_residual(capsys):
    code, rec = covariance_record(capsys, "hs:N=2")
    assert code == 0
    t = load_model("hs:N=2")
    omega = gauge_field(random_perturbation(t, n_terms=2, seed=0))
    u = random_unitary(t.algebra, seed=1)
    new_bg, new_rel = gauge_transform_field(t, OneForm.zero(t), omega, u)
    assert np.isfinite(rec["residual"])
    assert rec["residual"] == covariance_residual(t, u, omega, new_bg + new_rel)
    assert rec["passed"] and rec["residual"] <= rec["tolerance"]


def test_failing_gauge_covariance_is_strict_json(capsys):
    """The hopping fixture breaks covariance; its record keeps the statement and a finite residual."""
    code, rec = covariance_record(capsys, "ym:k=2,N=2,lam=0.1")
    assert code == 1
    assert not rec["passed"]
    assert rec["tolerance"] < rec["residual"] < 1.0
    assert rec["statement"] == covariance_record(capsys, "hs:N=2")[1]["statement"]


@pytest.mark.parametrize("argv", [
    ("check", "ym:k=2,N=2"),
    ("localize", "ym:k=2,N=2"),
    ("fluctuate", "hs:N=2", "random"),
    ("toric-scan", "s3", "1", "2", "0.2"),
])
def test_runs_are_deterministic(capsys, argv):
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_the_parser_is_built_once_per_process(capsys, monkeypatch):
    """Later calls parse with the same parser, and add no argument to it."""
    run(capsys, "check", "hs:N=2")
    added = []
    real = cli.argparse.ArgumentParser.add_argument
    monkeypatch.setattr(cli.argparse.ArgumentParser, "add_argument",
                        lambda self, *a, **k: added.append(a) or real(self, *a, **k))
    code, _, _ = run(capsys, "localize", "hs:N=2")
    assert code == 0 and added == []
    assert cli._parser() is cli._parser()


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, err = run(capsys, "check", "hs:N=2", "--out", str(target))
    assert code == 0
    assert out == ""
    assert "check[hs:N=2]" in err
    doc = json.loads(target.read_text())
    jsonschema.validate(instance=doc, schema=report_schema())


def test_tol_override_is_recorded(capsys):
    code, out, _ = run(capsys, "check", "hs:N=2", "--tol", "1e-3")
    assert code == 0
    doc = json.loads(out)
    assert doc["context"]["tol_override"] == 1e-3
    # residual-style records pick up the override; counting records keep 0.5
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["commutant-property"]["tolerance"] == 1e-3
    assert by_name["order-one-condition"]["tolerance"] == 1e-3


@pytest.mark.parametrize("argv,names", [
    (("check", "hs:N=2"), ("commutant-property", "defining-condition", "skew-images",
                           "bracket-form")),
    (("localize", "ym:k=2,N=2"), ("partition-of-unity", "section-reconstruction",
                                  "section-multiplicative", "norm-sup-identity",
                                  "one-forms-localize")),
    (("fluctuate", "hs:N=2", "pure"), ("field-self-adjoint", "pure-gauge-identity")),
])
def test_tol_zero_is_not_replaced(capsys, argv, names):
    code, out, _ = run(capsys, *argv, "--tol", "0")
    assert code in (0, 1)
    doc = json.loads(out)
    assert doc["context"]["tol_override"] == 0.0
    by_name = {c["name"]: c for c in doc["checks"]}
    for name in names:
        assert by_name[name]["tolerance"] == 0.0


def test_localize_makes_no_gauge_lie_algebra_call(capsys, monkeypatch):
    """The gauge dimension comes from the span alone, without the bracket checks."""
    calls = []
    real = gauge_module.gauge_lie_algebra

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(gauge_module, "gauge_lie_algebra", spy)
    monkeypatch.setattr(cli, "gauge_lie_algebra", spy)
    code, out, _ = run(capsys, "localize", "ym:k=3,N=3")
    assert code == 0
    assert calls == []
    want = real(load_model("ym:k=3,N=3"))
    assert json.loads(out)["context"]["group_bundle"]["gauge_dim"] == want.dim == 3 * (9 - 1)


def test_localize_draws_no_unitary_and_fewer_op_norms(capsys, monkeypatch):
    """The section and gauge records are derived from kappa_A and kappa_pi, not sampled.

    When they were sampled, this run drew 8 unitaries and took 164 spectral
    norms (as this spy counts); what is left are the norm-sup samples and
    the exact records.
    """
    calls = {"op_norm": 0, "random_unitary": 0}
    real = {"op_norm": linalg_module.op_norm, "random_unitary": staralg_module.random_unitary}

    def counted(name):
        def spy(*args, **kwargs):
            calls[name] += 1
            return real[name](*args, **kwargs)
        return spy

    for module in [m for n, m in sys.modules.items() if n.startswith("ncgauge")]:
        for name, fn in real.items():
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted(name))
    code, out, _ = run(capsys, "localize", "ym:k=3,N=3")
    assert code == 0
    assert calls["random_unitary"] == 0
    assert 0 < calls["op_norm"] < 162


# D = [[0, 1], [0, 0]] is not self-adjoint: check fails dirac-self-adjoint, and every
# gauge field u[D, u*] it gives fails field-self-adjoint
NON_SELF_ADJOINT_DIRAC = {"algebra": {"kind": "diagonal", "n": 2}, "representation": "defining",
                          "dirac": {"re": [[0, 1], [0, 0]]},
                          "real_structure": {"preset": "conjugation"}}
CONTRACT_CONFIGS = {**CONFIG_FIXTURES, "non-self-adjoint-dirac": NON_SELF_ADJOINT_DIRAC}
CONTRACT_COMMANDS = [("check",), ("localize",), ("fluctuate", "zero"), ("fluctuate", "pure"),
                     ("fluctuate", "random:terms=3")]

def config_path(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(CONTRACT_CONFIGS[name]))
    return str(path)


@pytest.mark.parametrize("name,command", [
    pytest.param(name, command, id=f"{name}-{'-'.join(command)}")
    for name in sorted(CONTRACT_CONFIGS) for command in CONTRACT_COMMANDS])
def test_every_config_gets_a_verdict(capsys, tmp_path, name, command):
    """Each command on each config exits 0 or 1 with a strict JSON report, never 3."""
    code, out, err = run(capsys, command[0], config_path(tmp_path, name), *command[1:])
    assert code in (0, 1), err
    doc = json.loads(out, parse_constant=reject)
    jsonschema.validate(instance=doc, schema=report_schema())
    assert doc["passed"] is (code == 0)


@pytest.mark.parametrize("perturbation", ["pure", "random"])
def test_a_non_self_adjoint_field_fails_its_record(capsys, tmp_path, perturbation):
    """The field's self-adjointness is a record decided at --tol, not a raised exception."""
    path = config_path(tmp_path, "non-self-adjoint-dirac")
    code, out, err = run(capsys, "fluctuate", path, perturbation)
    field = next(c for c in json.loads(out)["checks"] if c["name"] == "field-self-adjoint")
    assert (code, err) == (1, "")
    assert field["tolerance"] < field["residual"] < 1 and not field["passed"]
    code, out, _ = run(capsys, "fluctuate", path, perturbation, "--tol", "1")
    relaxed = next(c for c in json.loads(out)["checks"] if c["name"] == "field-self-adjoint")
    assert relaxed["residual"] == field["residual"] and relaxed["passed"]


def test_localize_reports_a_c_d_that_is_not_star_closed(capsys, tmp_path):
    """With D not self-adjoint, C_D is no *-algebra: a failing record, not a NotClosed fault."""
    code, out, err = run(capsys, "localize", config_path(tmp_path, "non-self-adjoint-dirac"))
    assert (code, err) == (1, "")
    failing = [c for c in json.loads(out, parse_constant=reject)["checks"] if not c["passed"]]
    assert [c["name"] for c in failing] == ["base-central-in-CD"]
    assert failing[0]["residual"] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(NotClosed, match="adjoints"):  # the oracle sees why
        c_d_certificate(triple_from_config(NON_SELF_ADJOINT_DIRAC))


@pytest.mark.parametrize("command", ["check", "localize"])
@pytest.mark.parametrize("name", ["non-closed-aj", "blocks-symmetric", "full-random"])
def test_subalgebra_closure_keeps_its_threshold_under_tol(capsys, tmp_path, name, command):
    """The record states the threshold the failed closure check used; --tol does not replace it."""
    path = non_closed_aj_config(tmp_path) if name == "non-closed-aj" else config_path(tmp_path, name)
    for extra in ([], ["--tol", "1"]):
        code, out, _ = run(capsys, command, path, *extra)
        closure = next(c for c in json.loads(out)["checks"] if c["name"] == "subalgebra-closure")
        assert code == 1
        assert closure["residual"] > closure["tolerance"] == 1e-8 and not closure["passed"]
