"""The three job lists and the reference every job's output is checked against.

A job is one ``ncgauge`` command line.  The benchmark appends ``--seed <n>``
to each, and every reference below holds for any seed: the dimensions are
fixed by the mathematics of the preset, not by the random draws.

Where the expected value is stated in the README or ROADMAP it is derived
here from that statement (su(N) has dimension N^2 - 1, the orbifold algebra
has dimension m q^2 with an m-dimensional center, ...).  Two behaviours of
the current program are known to be wrong and are listed as ``known``
defects: the job still counts as failed, but the failure is the documented
one rather than a new one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# record names, in report order, of ``check`` on a spectral triple
CHECK_RECORDS = [
    "representation-unital", "representation-multiplicative", "representation-star",
    "representation-injective", "dirac-self-adjoint", "real-structure-isometry",
    "real-structure-square", "real-structure-dirac-sign", "commutant-property",
    "order-one-condition", "real-structure-premise", "defining-condition",
    "inside-center", "star-closed", "commutes-with-one-forms", "skew-images",
    "dimension-identity", "bracket-form", "bracket-closure",
]
LOCALIZE_RECORDS = [
    "partition-of-unity", "base-central-in-A", "fiber-dimension-sum",
    "section-reconstruction", "section-multiplicative", "base-central-in-CD",
    "norm-sup-identity", "cross-representation-norm", "fiberwise-conjugation",
    "omega-dimension-sum", "one-forms-localize", "gauge-action-localizes",
    "unitary-dimension-sum", "gauge-dimension-sum",
]
RANDOM_FLUCTUATION_RECORDS = ["normalization", "flip-self-adjoint", "field-self-adjoint",
                              "doubled-form", "gauge-covariance"]
PURE_FLUCTUATION_RECORDS = ["field-self-adjoint", "pure-gauge-identity", "doubled-form"]

# failure kinds a job can show; see check.py
RAISED_MEMORY_ERROR = "raised MemoryError"
NORM_BELOW_SUP = "norm below the torus sup"


@dataclass(frozen=True)
class Known:
    """A defect of the current program that the job is expected to show."""

    kind: str
    why: str


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    exit_code: int
    records: dict[str, bool]          # record name -> expected verdict, in order
    context: dict = field(default_factory=dict)   # dotted path -> expected value
    toric: tuple | None = None        # (sphere, p, q, h, poly) for row checks
    known: Known | None = None


def _all_pass(names: list[str], failing: tuple[str, ...] = ()) -> dict[str, bool]:
    return {n: n not in failing for n in names}


def check_triple(spec: str, name: str, k: int, n: int, failing: tuple[str, ...] = ()) -> Job:
    """``check`` on hs (k = 1) or ym: A = k copies of M_n, A_J = C^k, gauge = k su(n)."""
    return Job(name, ("check", spec), 1 if failing else 0, _all_pass(CHECK_RECORDS, failing),
               {"gauge.dim": k * (n * n - 1), "gauge.u_A_dim": k * n * n,
                "gauge.u_AJ_dim": k})


def check_orbifold(q: int, p: int, m: int, known: Known | None = None) -> Job:
    """The equivariant algebra has dimension m q^2 and one central scalar per orbit."""
    return Job(f"check-orbifold-{q}-{p}-{m}", ("check", f"orbifold:q={q},p={p},m={m}"), 0,
               _all_pass(["dimension", "center-dimension"]),
               {"algebra_dim": m * q * q, "dim": m * q * q, "center_dim": m}, known=known)


def localize_triple(spec: str, name: str, k: int, n: int) -> Job:
    """Without hopping every point carries M_n, and C_D(A) = k copies of M_n."""
    fibers = [n * n] * k
    return Job(name, ("localize", spec), 0, _all_pass(LOCALIZE_RECORDS),
               {"localization.aj_dim": k, "localization.fiber_dims": fibers,
                "localization.omega_fiber_dims": fibers,
                "omega_bundle.cd_dim": k * n * n,
                "omega_bundle.grading.even_dim": k * n * n,
                "omega_bundle.grading.odd_dim": k * n * n,
                "omega_bundle.grading.total_dim": k * n * n,
                "group_bundle.u_A_dim": k * n * n,
                "group_bundle.gauge_dim": k * (n * n - 1)})


def toric_scan(name: str, sphere: str, p: int, q: int, h: float, poly: str = "a + b",
               json_format: bool = False, known: Known | None = None) -> Job:
    argv = ["toric-scan", sphere, str(p), str(q), str(h)]
    if poly != "a + b":
        argv += ["--poly", poly]
    if json_format:
        argv += ["--format", "json"]
    strata = ["EdgeAlpha", "EdgeBeta", "Interior"] + (["Pole"] if sphere == "s4" else [])
    context = {}
    if json_format:
        dims = {"EdgeAlpha": [q], "EdgeBeta": [q], "Interior": [q * q]}
        if sphere == "s4":
            dims["Pole"] = [1]
        context = {"strata.dims": dims, "strata.p": p, "strata.q": q}
    records = _all_pass([f"stratum-{s}" for s in strata] + ["profile-jump-halving"])
    return Job(name, tuple(argv), 0, records, context, (sphere, p, q, h, poly), known)


def grid_count(h: float) -> int:
    """Coarse grid intervals per angle, as ``toric-scan`` lays them out."""
    return max(1, round((math.pi / 2) / h))


def expected_row(sphere: str, q: int, i: int, j: int, n: int) -> tuple[str, int]:
    """Stratum label and fiber dimension at coarse grid index (i, j).

    chi = i pi/(2n) and psi = j pi/(2n).  alpha vanishes at chi = pi/2,
    beta at chi = 0, and both at the 4-sphere pole psi = pi/2.  The fiber
    is generated by the nonzero clock/shift letters: both give M_q, one
    gives its q-dimensional diagonal, none gives the scalars.
    """
    if sphere == "s4" and j == n:
        return "Pole", 1
    if i == 0:
        return "EdgeAlpha", q
    if i == n:
        return "EdgeBeta", q
    return "Interior", q * q


ORBIFOLD_OOM = Known(
    RAISED_MEMORY_ERROR,
    "linalg.nullspace calls scipy null_space on the transposed image stack, which "
    "builds an unused M x M factor (ROADMAP item 2)")
ROOT_POINT_NORM = Known(
    NORM_BELOW_SUP,
    "fiber_norm3/4 only sample root-of-unity torus points, one representation class; "
    "a^2 - 1 at q = 2 reads 0 at chi = 0 where the sup is 2 (ROADMAP item 3)")

WORKLOADS: dict[str, list[Job]] = {
    "check-grow": [
        check_triple("hs:N=4", "check-hs-4", 1, 4),
        check_triple("hs:N=5", "check-hs-5", 1, 5),
        check_triple("hs:N=6", "check-hs-6", 1, 6),
        check_triple("ym:k=3,N=3", "check-ym-3-3", 3, 3),
        check_orbifold(4, 1, 1),
        check_orbifold(3, 1, 2),
        check_orbifold(4, 1, 2, ORBIFOLD_OOM),
        check_orbifold(3, 1, 3, ORBIFOLD_OOM),
    ],
    "localize-closure": [
        localize_triple("hs:N=4", "localize-hs-4", 1, 4),
        localize_triple("ym:k=2,N=3", "localize-ym-2-3", 2, 3),
        localize_triple("ym:k=3,N=3", "localize-ym-3-3", 3, 3),
        Job("fluctuate-hs-5-random", ("fluctuate", "hs:N=5", "random:terms=3"), 0,
            _all_pass(RANDOM_FLUCTUATION_RECORDS)),
        Job("fluctuate-ym-3-3-pure", ("fluctuate", "ym:k=3,N=3", "pure"), 0,
            _all_pass(PURE_FLUCTUATION_RECORDS)),
        # README's honest-failure fixture: hopping breaks the order-one
        # condition, and with it the commutation of A_J with one-forms
        check_triple("ym:k=2,N=2,lam=0.1", "check-ym-2-2-lam", 2, 2,
                     failing=("order-one-condition", "commutes-with-one-forms")),
    ],
    "toric-grid": [
        toric_scan("toric-s4-1-3", "s4", 1, 3, 0.2),
        toric_scan("toric-s4-2-5-json", "s4", 2, 5, 0.2, json_format=True),
        toric_scan("toric-s3-1-7", "s3", 1, 7, 0.05),
        toric_scan("toric-s4-1-3-ab", "s4", 1, 3, 0.2, poly="a*b + bd*ad"),
        toric_scan("toric-s3-1-2-a2", "s3", 1, 2, 0.02, poly="a^2 - 1",
                   known=ROOT_POINT_NORM),
    ],
}

WARM_UP = ("check", "hs:N=2")
