"""One ``--tol`` rule for every command, checked against each command's default run.

Records are built at their rung of the tolerance ladder, and ``--tol`` holds
every record that is not fixed to one value, deciding it again; the fixed
records (integer identities, a failed closure with its own threshold, the
toric jump band) keep their tolerance.  The oracle here knows the fixed and
the witnessed records by name, not through the code under test.
"""

import json

import pytest

from ncgauge.reporting import CheckRecord, Report
from test_cli import CONTRACT_COMMANDS, CONTRACT_CONFIGS, config_path, non_closed_aj_config, run

PRESETS = ["hs:N=2", "hs:N=3", "hs:N=4", "ym:k=2,N=2", "ym:k=2,N=1", "ym:k=3,N=2",
           "ym:k=2,N=2,lam=0.1", "ym:k=3,N=2,lam=0.3", "ym:k=2,N=1,lam=0.1",
           "orbifold:q=3,p=1,m=2"]
MODELS = PRESETS + sorted(CONTRACT_CONFIGS) + ["non-closed-aj"]
TOLS = (0.0, 1e-12, 1e-3, 1.0)
TORIC_JOBS = [("s3", "1", "2", "0.5"), ("s4", "1", "3", "0.4"),
              ("s3", "1", "5", "0.2", "--poly", "a*ad")]

INTEGER_IDENTITIES = {"representation-injective", "dimension-identity", "fiber-dimension-sum",
                      "cross-representation-norm", "omega-dimension-sum",
                      "unitary-dimension-sum", "gauge-dimension-sum", "dimension",
                      "center-dimension"}
WITNESSED = {"representation-multiplicative", "commutant-property", "order-one-condition",
             "commutes-with-one-forms", "bracket-form", "bracket-closure"}


def is_fixed(name: str) -> bool:
    return (name in INTEGER_IDENTITIES or name.startswith("stratum-")
            or name in ("subalgebra-closure", "profile-jump-halving"))


def rule_violations(default: dict, doc: dict, tol: float) -> list[str]:
    """How ``doc``, a run at ``--tol tol``, departs from the default run under the one rule."""
    found = []
    facts = ("name", "residual", "statement", "scope")
    if [[c[k] for k in facts] for c in doc["checks"]] != [[c[k] for k in facts]
                                                          for c in default["checks"]]:
        found.append("names, residuals, statements or scopes differ")
    context, context0 = (
        {k: v for k, v in d["context"].items() if k not in ("witnesses", "tol_override")}
        for d in (doc, default))
    if doc["title"] != default["title"] or context != context0:
        found.append("title or context differs")
    if doc["context"]["tol_override"] != tol:
        found.append("tol_override is not --tol")
    for c, c0 in zip(doc["checks"], default["checks"]):
        if is_fixed(c["name"]):
            if c != c0:
                found.append(f"fixed record {c['name']} changed")
        elif c["tolerance"] != tol or c["passed"] is not (c["residual"] <= tol):
            found.append(f"{c['name']} is not held to --tol")
    if doc["passed"] is not all(c["passed"] for c in doc["checks"]):
        found.append("the report verdict is not the records' verdict")
    witnesses = doc["context"].get("witnesses", {})
    if list(witnesses) != [c["name"] for c in doc["checks"]
                           if c["name"] in WITNESSED and not c["passed"]]:
        found.append("witnesses are not those of the failing witnessed records")
    known = default["context"].get("witnesses", {})
    if any(known[name] != at for name, at in witnesses.items() if name in known):
        found.append("a witness moved")
    return found


def model_path(tmp_path, model: str) -> str:
    if model == "non-closed-aj":
        return non_closed_aj_config(tmp_path)
    return config_path(tmp_path, model) if model in CONTRACT_CONFIGS else model


def assert_one_rule(capsys, argv):
    code0, out0, err0 = run(capsys, *argv)
    for tol in TOLS:
        code, out, err = run(capsys, *argv, "--tol", repr(tol))
        if code0 == 2:  # bad input stays bad input
            assert (code, out, err) == (code0, out0, err0)
            continue
        doc = json.loads(out)
        assert rule_violations(json.loads(out0), doc, tol) == []
        assert (code, err) == (0 if doc["passed"] else 1, "")


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("command", CONTRACT_COMMANDS, ids="-".join)
def test_tol_holds_every_record_that_is_not_fixed(capsys, tmp_path, command, model):
    assert_one_rule(capsys, [command[0], model_path(tmp_path, model), *command[1:]])


@pytest.mark.parametrize("job", TORIC_JOBS, ids="-".join)
def test_toric_scan_records_are_all_fixed(capsys, job):
    assert_one_rule(capsys, ["toric-scan", *job, "--format", "json"])


def _touches_fixed(self, tol):
    for r in self.records:
        r.tolerance, r.passed = tol, r.residual <= tol


def _keeps_passed(self, tol):
    for r in self.records:
        if not r.fixed:
            r.tolerance = tol


def _filters_witnesses_once(self, record, witness=None):
    """``Report.add`` that keeps only the witnesses of the records failing when added."""
    self.records.append(record)
    if witness is not None and not record.passed:
        self._witnesses[record.name] = list(witness)
    return record


@pytest.mark.parametrize("attr,mutant,argv,tol", [
    ("override_tolerance", _touches_fixed, ("check", "hs:N=2"), 1e-3),
    ("override_tolerance", _keeps_passed, ("check", "hs:N=2"), 0.0),
    ("add", _filters_witnesses_once, ("check", "ym:k=2,N=2,lam=0.1"), 1.0),
    ("add", _filters_witnesses_once, ("check", "hs:N=2"), 0.0),
], ids=["touches-fixed", "keeps-passed", "keeps-passing-witnesses", "drops-new-witnesses"])
def test_the_oracle_fails_a_broken_override(capsys, monkeypatch, attr, mutant, argv, tol):
    _, out0, _ = run(capsys, *argv)
    if attr == "add":
        monkeypatch.setattr(Report, "witnesses", property(lambda self: dict(self._witnesses)))
    monkeypatch.setattr(Report, attr, mutant)
    _, out, _ = run(capsys, *argv, "--tol", repr(tol))
    assert rule_violations(json.loads(out0), json.loads(out), tol)


def test_override_keeps_a_fixed_record_and_decides_the_others_again():
    rep = Report("r")
    rep.add(CheckRecord.from_residual("derived", "s", 1e-6, 1e-8), witness=(0, 1))
    rep.add(CheckRecord.identity("count", "s", 3, 3))
    assert rep.witnesses == {"derived": [0, 1]}
    rep.override_tolerance(1e-3)
    assert [(r.tolerance, r.passed) for r in rep.records] == [(1e-3, True), (0.5, True)]
    assert rep.witnesses == {}  # kept, but shown only while its record fails
    rep.override_tolerance(0.0)
    assert rep.witnesses == {"derived": [0, 1]}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "-1"])
@pytest.mark.parametrize("argv", [("check", "hs:N=2"), ("localize", "hs:N=2"),
                                  ("fluctuate", "hs:N=2", "pure"),
                                  ("toric-scan", "s3", "1", "2", "0.5")], ids="-".join)
def test_tol_that_is_not_a_finite_non_negative_number_is_bad_input(capsys, argv, value, fmt):
    code, out, err = run(capsys, *argv, f"--tol={value}", "--format", fmt)
    assert (code, out) == (2, "")
    assert err == f"error: --tol must be a finite non-negative number, got {float(value)}\n"
