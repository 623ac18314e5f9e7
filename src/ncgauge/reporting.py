"""Check records and machine-readable reports.

Every verification routine in the package returns the same record shape:
a named check, the mathematical statement being tested, a numeric
residual, the tolerance it was held to, a pass flag, and a scope label
saying what kind of evidence the number is:

* ``exact``                machine-precision algebraic identity
* ``finite-shadow``        finite-dimensional analogue of a statement
                           about a continuum object
* ``rational-shadow``      rational-parameter matrix model standing in
                           for an irrational-parameter algebra
* ``continuity-evidence``  grid statistics supporting a continuity claim

Reports serialise to JSON with a versioned schema tag; the schema ships
with the package under ``schema/report.schema.json``.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

__all__ = [
    "SCHEMA_TAG",
    "SCOPE_EXACT",
    "SCOPE_FINITE",
    "SCOPE_RATIONAL",
    "SCOPE_CONTINUITY",
    "NonFiniteReport",
    "CheckRecord",
    "Report",
    "rows_to_csv",
]

SCHEMA_TAG = "ncgauge.report/1"

SCOPE_EXACT = "exact"
SCOPE_FINITE = "finite-shadow"
SCOPE_RATIONAL = "rational-shadow"
SCOPE_CONTINUITY = "continuity-evidence"

_SCOPES = {SCOPE_EXACT, SCOPE_FINITE, SCOPE_RATIONAL, SCOPE_CONTINUITY}


class NonFiniteReport(ArithmeticError):
    """A NaN or an infinity reached a JSON report, which strict JSON cannot hold."""


def _jsonable(value):
    import numpy as np

    if isinstance(value, (bool,)):
        return value
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (complex, np.complexfloating)):
        return {"re": float(value.real), "im": float(value.imag)}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    return value


@dataclass
class CheckRecord:
    """Outcome of one verified statement."""

    name: str
    statement: str
    residual: float
    tolerance: float
    passed: bool
    scope: str = SCOPE_EXACT
    fixed: bool = False  # Report.override_tolerance (--tol) leaves it as built

    def __post_init__(self):
        if self.scope not in _SCOPES:
            raise ValueError(f"unknown scope label {self.scope!r}")
        self.residual = float(self.residual)
        self.tolerance = float(self.tolerance)
        self.passed = bool(self.passed)

    @classmethod
    def from_residual(cls, name: str, statement: str, residual: float, tolerance: float,
                      scope: str = SCOPE_EXACT, fixed: bool = False) -> "CheckRecord":
        return cls(name, statement, float(residual), float(tolerance),
                   float(residual) <= float(tolerance), scope, fixed)

    @classmethod
    def identity(cls, name: str, statement: str, got: int, want: int,
                 scope: str = SCOPE_EXACT) -> "CheckRecord":
        """The integer identity got = want: residual |got - want|, tolerance 0.5, fixed."""
        return cls(name, statement, abs(got - want), 0.5, got == want, scope, fixed=True)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "statement": self.statement,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "scope": self.scope,
        }

    def __str__(self) -> str:
        flag = "pass" if self.passed else "FAIL"
        return f"[{flag}] {self.name}: residual {self.residual:.3e} (tol {self.tolerance:.1e})"


@dataclass
class Report:
    """A titled bundle of check records plus free-form context.

    Each record is built at its rung of the tolerance ladder
    (:mod:`ncgauge.linalg`) or is fixed: an integer identity
    (:meth:`CheckRecord.identity`) or a record held to a threshold of its
    own.  :meth:`override_tolerance` holds every record that is not fixed to
    one value, which is what ``--tol`` does in every command.

    A max-over-pairs record may carry a witness, the index pair that attains
    its residual (a max over single elements gives one index); witnesses
    travel with the records through :meth:`extend`.  ``witnesses``, written
    out as ``context["witnesses"]``, names those of the failing records only:
    within tolerance the argmax is mostly taken over rounding noise, and it
    moves whenever the arithmetic is reordered.
    """

    title: str
    records: list[CheckRecord] = field(default_factory=list)
    context: dict = field(default_factory=dict)
    _witnesses: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def witnesses(self) -> dict:
        return {name: at for name, at in self._witnesses.items() if not self.record(name).passed}

    def add(self, record: CheckRecord, witness: tuple[int, ...] | None = None) -> CheckRecord:
        self.records.append(record)
        if witness is not None:
            self._witnesses[record.name] = list(witness)
        return record

    def override_tolerance(self, tol: float) -> None:
        """Hold every record that is not fixed to ``tol``, and decide it again."""
        for r in self.records:
            if not r.fixed:
                r.tolerance, r.passed = float(tol), r.residual <= tol

    def record(self, name: str) -> CheckRecord:
        for r in self.records:
            if r.name == name:
                return r
        raise KeyError(name)

    def extend(self, other: "Report") -> None:
        self.records.extend(other.records)
        self._witnesses.update(other._witnesses)

    def max_residual(self) -> float:
        return max((r.residual for r in self.records), default=0.0)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_TAG,
            "title": self.title,
            "passed": self.passed,
            "checks": [r.to_dict() for r in self.records],
            "context": _jsonable({**self.context, "witnesses": self.witnesses}
                                 if self.witnesses else self.context),
        }

    def to_json(self) -> str:
        try:
            return json.dumps(self.to_dict(), indent=2, sort_keys=False, allow_nan=False)
        except ValueError as exc:  # allow_nan=False raises it on a NaN or an infinity
            raise NonFiniteReport(f"{self.title}: {exc}") from exc

    def __str__(self) -> str:
        lines = [self.title]
        lines += [f"  {r}" for r in self.records]
        lines.append(f"  => {'all checks passed' if self.passed else 'CHECKS FAILED'}")
        return "\n".join(lines)


def rows_to_csv(rows: list[dict], columns: list[str]) -> str:
    """Render dict rows as CSV with a fixed column order."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k, "") for k in columns})
    return buf.getvalue()
