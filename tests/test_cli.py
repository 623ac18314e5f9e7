"""End-to-end runs of the command line interface."""

import importlib
import json
import os
import resource
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
from ncgauge.models import load_model
from ncgauge.parsing import parse_sphere
from ncgauge.reporting import CheckRecord, Report
from ncgauge.spectral import OneForm, compute_aj, one_form_space
from ncgauge.staralg import DegenerateDraw, NonCommutative, random_unitary
from ncgauge.toric import continuity_report
from ncgauge.torus import rational_mode

localize_module = importlib.import_module("ncgauge.localize")
gauge_module = importlib.import_module("ncgauge.gauge")


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


PAIR_RECORDS = ["representation-multiplicative", "commutant-property", "order-one-condition",
                "commutes-with-one-forms", "bracket-form", "bracket-closure"]


def test_check_witnesses_reproduce_the_failing_residuals(capsys):
    spec = "ym:k=2,N=2,lam=0.1"
    _, out, _ = run(capsys, "check", spec)
    doc = json.loads(out)
    witnesses = doc["context"]["witnesses"]
    assert list(witnesses) == PAIR_RECORDS
    records = {c["name"]: c for c in doc["checks"]}
    t = load_model(spec)
    i, j = witnesses["order-one-condition"]
    a, b = t.algebra.basis[i], t.algebra.basis[j]
    residual = op_norm(commutator(t.dirac_commutator(a), t.b_opposite(b)))
    assert residual == pytest.approx(records["order-one-condition"]["residual"], rel=1e-12)
    # a max of map norms over A_J's basis: the witness is the worst basis element
    [i] = witnesses["commutes-with-one-forms"]
    residual = commutator_map_norm(t.pi(compute_aj(t).basis[i]), np.stack(one_form_space(t).basis))
    assert residual == pytest.approx(records["commutes-with-one-forms"]["residual"], rel=1e-12)
    assert not records["order-one-condition"]["passed"]
    assert not records["commutes-with-one-forms"]["passed"]


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
                                   DegenerateDraw("no well-separated spectral draw in 10 tries")])
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


def _cap_address_space():
    cap = 4 << 30
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


@pytest.mark.parametrize("q,m", [(4, 2), (3, 3)])
def test_check_large_orbifold_under_memory_cap(q, m):
    # an M x M nullspace factor here would need 16 GiB (q=4, m=2); the run
    # is capped at 4 GiB in a child process so that it cannot take the host's
    env = dict(os.environ, PYTHONPATH=str(Path(ncgauge.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "ncgauge.cli", "check", f"orbifold:q={q},p=1,m={m}"],
        capture_output=True, text=True, env=env, preexec_fn=_cap_address_space, timeout=120)
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
    new_bg, new_rel = gauge_transform_field(t, OneForm.zero(t), omega, u, check=False)
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
