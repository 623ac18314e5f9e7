"""End-to-end runs of the command line interface."""

import json
import os
import resource
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import ncgauge
from ncgauge import cli
from ncgauge.cli import main
from ncgauge.linalg import commutator, op_norm
from ncgauge.models import load_model
from ncgauge.spectral import compute_aj, one_form_space


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
    i, k = witnesses["commutes-with-one-forms"]
    residual = op_norm(commutator(t.pi(compute_aj(t).basis[i]), one_form_space(t).basis[k]))
    assert residual == pytest.approx(records["commutes-with-one-forms"]["residual"], rel=1e-12)
    assert not records["order-one-condition"]["passed"]
    assert not records["commutes-with-one-forms"]["passed"]


def test_check_reports_a_non_closed_aj(capsys, tmp_path):
    # conjugation on the full M_2 puts every a with a = a^T into A_J: not a *-algebra
    config = tmp_path / "non_closed.json"
    config.write_text(json.dumps({
        "algebra": {"kind": "full", "n": 2}, "representation": "defining",
        "dirac": {"preset": "zero"}, "real_structure": {"preset": "conjugation"}}))
    code, out, err = run(capsys, "check", str(config))
    assert code == 1
    assert err == ""
    doc = json.loads(out)
    records = {c["name"]: c for c in doc["checks"]}
    assert doc["checks"][-1]["name"] == "subalgebra-closure"
    assert not records["subalgebra-closure"]["passed"]
    assert "not closed" in doc["context"]["closure_error"]
    assert "gauge" not in doc["context"]


@pytest.mark.parametrize("fault", [np.linalg.LinAlgError("SVD did not converge"), MemoryError()])
def test_program_fault_exits_3(capsys, monkeypatch, fault):
    # LinAlgError is a ValueError, and must not read as bad input (exit 2)
    def broken(*args, **kwargs):
        raise fault

    monkeypatch.setattr(cli, "check_axioms", broken)
    code, out, err = run(capsys, "check", "hs:N=2")
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("internal error:")
    assert type(fault).__name__ in err


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


def test_toric_scan_s4_poly_with_x(capsys):
    code, out, _ = run(capsys, "toric-scan", "s4", "1", "2", "0.4",
                       "--poly", "a + x")
    assert code == 0
    assert out.splitlines()[0] == "chi,psi,r,s,x,norm,stratum,fiber_dim"


def test_toric_scan_rejects_x_on_s3(capsys):
    code, _, err = run(capsys, "toric-scan", "s3", "1", "2", "0.3",
                       "--poly", "x")
    assert code == 2
    assert "error:" in err


def test_toric_scan_parse_error(capsys):
    code, _, err = run(capsys, "toric-scan", "s3", "1", "2", "0.3",
                       "--poly", "a +")
    assert code == 2
    assert "error:" in err


def test_toric_scan_bad_mode(capsys):
    code, _, err = run(capsys, "toric-scan", "s3", "2", "4", "0.3")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("check", "ym:k=2,N=2"),
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
