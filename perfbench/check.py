"""Compare one job's output with its reference from jobs.py.

``job_failures`` returns a list of ``(kind, message)`` pairs, empty when the
job matches.  A job whose failures are all of its ``known`` kind shows the
documented defect; any other failure is unexpected and makes the run
incorrect.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import re

from jobs import Job, NORM_BELOW_SUP, expected_row, grid_count

_SUMMARY_RECORD = re.compile(r"^\s+\[(pass|FAIL)\] (\S+):")

# torus points per representation class and direction for the dense sup
_SUP_POINTS = 16
_NORM_RTOL = 1e-9


def _records_and_context(job: Job, stdout: str, stderr: str):
    """(records, context, rows) as the job printed them."""
    if job.toric and "--format" not in job.argv:
        rows = list(csv.DictReader(io.StringIO(stdout)))
        records = [(m.group(2), m.group(1) == "pass")
                   for m in map(_SUMMARY_RECORD.match, stderr.splitlines()) if m]
        return records, {}, rows
    doc = json.loads(stdout)
    records = [(c["name"], c["passed"]) for c in doc["checks"]]
    return records, doc["context"], doc["context"].get("rows")


def _lookup(context: dict, path: str):
    value = context
    for key in path.split("."):
        value = value[key]
    return value


def _sample_rows(sphere: str, n: int) -> list[tuple[int, int]]:
    """Fixed coarse-grid points where norms are compared with the dense sup."""
    if sphere == "s3":
        return [(0, 0), (n // 2, 0), (n, 0)]
    return [(0, 0), (n // 2, n // 3), (n, 0)]


def torus_sup(sphere: str, p: int, q: int, poly: str, chi: float, psi: float) -> float:
    """Sup of the evaluation norm over a dense grid of torus coordinates.

    Multiplying z1 or z2 by a q-th root of unity gives a unitarily
    equivalent evaluation, so one cell [0, 2 pi / q)^2 of the torus covers
    every representation class.  The grid contains z = (1, 1), the class
    the program samples, so this sup is never below an honest report.
    """
    import numpy as np

    from ncgauge import BasePoint3, BasePoint4, parse_sphere, rational_mode, s3_eval, s4_eval

    e = parse_sphere(poly, rational_mode(p, q))
    best = 0.0
    for a in range(_SUP_POINTS):
        for b in range(_SUP_POINTS):
            z1 = cmath.exp(2j * math.pi * a / (_SUP_POINTS * q))
            z2 = cmath.exp(2j * math.pi * b / (_SUP_POINTS * q))
            if sphere == "s3":
                m = s3_eval(e, BasePoint3(chi, z1, z2), p, q)
            else:
                m = s4_eval(e, BasePoint4(chi, psi, z1, z2), p, q)
            best = max(best, float(np.linalg.norm(m, 2)))
    return best


class Checker:
    """Checks job results; caches the dense torus sups across passes."""

    def __init__(self):
        self._sups: dict[tuple, float] = {}

    def _sup(self, key: tuple) -> float:
        if key not in self._sups:
            self._sups[key] = torus_sup(*key)
        return self._sups[key]

    def job_failures(self, job: Job, result: dict) -> list[tuple[str, str]]:
        if result["error"]:
            return [(f"raised {result['error'].split(':')[0]}", result["error"])]
        fails = []
        if result["exit"] != job.exit_code:
            fails.append(("exit code", f"exit {result['exit']}, expected {job.exit_code}"))
        try:
            records, context, rows = _records_and_context(job, result["stdout"], result["stderr"])
        except (ValueError, KeyError) as exc:
            return fails + [("unreadable output", f"{type(exc).__name__}: {exc}")]
        if [name for name, _ in records] != list(job.records):
            fails.append(("records", f"record names {[n for n, _ in records]}"))
        else:
            wrong = [name for name, ok in records if ok != job.records[name]]
            if wrong:
                fails.append(("verdict", f"unexpected verdicts on {wrong}"))
        for path, want in job.context.items():
            try:
                got = _lookup(context, path)
            except (KeyError, TypeError):
                got = "<missing>"
            if got != want:
                fails.append(("dimension", f"{path} = {got}, expected {want}"))
        if job.toric:
            fails += self._toric_failures(job, rows or [])
        return fails

    def _toric_failures(self, job: Job, rows: list[dict]) -> list[tuple[str, str]]:
        sphere, p, q, h, poly = job.toric
        n = grid_count(h)
        side = n + 1
        want = side if sphere == "s3" else side * side
        if len(rows) != want:
            return [("rows", f"{len(rows)} rows, expected {want}")]
        fails = []
        for idx, row in enumerate(rows):
            i, j = (idx, 0) if sphere == "s3" else divmod(idx, side)
            label, dim = expected_row(sphere, q, i, j, n)
            if row["stratum"] != label or int(row["fiber_dim"]) != dim:
                fails.append(("stratum", f"row {idx}: {row['stratum']}/{row['fiber_dim']}, "
                                         f"expected {label}/{dim}"))
                break
        for i, j in _sample_rows(sphere, n):
            row = rows[i if sphere == "s3" else i * side + j]
            chi = float(row["chi"])
            psi = float(row.get("psi") or 0.0)
            got = float(row["norm"])
            sup = self._sup((sphere, p, q, poly, chi, psi))
            tol = _NORM_RTOL * max(1.0, sup)
            if got < sup - tol:
                fails.append((NORM_BELOW_SUP, f"chi={chi:.4f} psi={psi:.4f}: norm {got:.6g}, "
                                              f"torus sup {sup:.6g}"))
            elif got > sup + tol:
                fails.append(("norm above the torus sup",
                              f"chi={chi:.4f} psi={psi:.4f}: norm {got:.6g}, sup {sup:.6g}"))
        return fails


def outcome(job: Job, fails: list[tuple[str, str]]) -> str:
    """'ok', 'known' (the documented defect) or 'unexpected'."""
    if not fails:
        return "ok"
    if job.known and all(kind == job.known.kind for kind, _ in fails):
        return "known"
    return "unexpected"
