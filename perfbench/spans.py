"""Spans around the public functions of each ncgauge module.

``Tracer.install`` wraps the functions in ``SPANS`` from outside the
package: every module attribute that is the original function object is
rebound to the wrapper (modules import by name, e.g. ``from .linalg import
op_norm``), and methods are replaced on their class.  It is meant for a
process that runs one job and exits, so nothing is ever uninstalled.

Spans live in memory as parallel lists (name, start, end, parent) and are
written out when the job ends.  Self time is a span's duration minus the
durations of its direct children; spans nest, so the children cover
disjoint parts of the parent.

Work counts (rows stacked, SVD operation counts, factor sizes) are computed
from argument and result shapes at the wrapped boundary, not measured.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

# (span name, module, attribute path) in the order the layers are listed
SPANS = [
    ("cli.glue", "ncgauge.cli", "main"),
    ("models.load_model", "ncgauge.models", "load_model"),
    ("linalg.from_spanning", "ncgauge.linalg", "Subspace.from_spanning"),
    ("linalg.from_spanning", "ncgauge.linalg", "RealSpan.from_spanning"),
    ("linalg.nullspace", "ncgauge.linalg", "nullspace"),
    ("linalg.generated_algebra", "ncgauge.linalg", "generated_algebra"),
    ("linalg.op_norm", "ncgauge.linalg", "op_norm"),
    ("staralg.center", "ncgauge.staralg", "center"),
    ("staralg.FiniteStarAlgebra", "ncgauge.staralg", "FiniteStarAlgebra.__init__"),
    ("staralg.minimal_projections", "ncgauge.staralg", "minimal_projections"),
    ("spectral.check_axioms", "ncgauge.spectral", "check_axioms"),
    ("spectral.pi", "ncgauge.spectral", "RealSpectralTriple.pi"),
    ("spectral.one_form_space", "ncgauge.spectral", "one_form_space"),
    ("spectral.c_d_algebra", "ncgauge.spectral", "c_d_algebra"),
    ("spectral.compute_aj", "ncgauge.spectral", "compute_aj"),
    ("spectral.verify_aj_properties", "ncgauge.spectral", "verify_aj_properties"),
    ("gauge.gauge_lie_algebra", "ncgauge.gauge", "gauge_lie_algebra"),
    ("gauge.random_perturbation", "ncgauge.gauge", "random_perturbation"),
    ("gauge.gauge_field", "ncgauge.gauge", "gauge_field"),
    ("gauge.fluctuate", "ncgauge.gauge", "fluctuate"),
    ("gauge.doubled_fluctuation", "ncgauge.gauge", "doubled_fluctuation"),
    ("gauge.gauge_transform_field", "ncgauge.gauge", "gauge_transform_field"),
    ("localize.localize", "ncgauge.localize", "localize"),
    ("localize.norm_is_sup", "ncgauge.localize", "norm_is_sup"),
    ("localize.fiber_gauge_action", "ncgauge.localize", "fiber_gauge_action"),
    ("localize.omega_bundle", "ncgauge.localize", "omega_bundle"),
    ("localize.group_bundle_dims", "ncgauge.localize", "group_bundle_dims"),
    ("toric.norm_profile", "ncgauge.toric", "norm_profile"),
    ("toric.fiber_norm", "ncgauge.toric", "fiber_norm3"),
    ("toric.fiber_norm", "ncgauge.toric", "fiber_norm4"),
    ("toric.eval", "ncgauge.toric", "s3_eval"),
    ("toric.eval", "ncgauge.toric", "s4_eval"),
    ("toric.fiber_dimension", "ncgauge.toric", "s3_fiber_dimension"),
    ("toric.fiber_dimension", "ncgauge.toric", "s4_fiber_dimension"),
    ("toric.stratum_scan", "ncgauge.toric", "stratum_scan"),
    ("torus.clock_shift", "ncgauge.torus", "clock_shift"),
    ("reporting.render", "ncgauge.reporting", "Report.to_json"),
    ("reporting.render", "ncgauge.reporting", "rows_to_csv"),
]


def svd_flop(rows: int, cols: int, complex_entries: bool) -> float:
    """Leading-order operation count of a thin SVD of a rows x cols stack.

    4 m n min(m, n) real operations, times 4 for complex arithmetic.
    """
    flop = 4.0 * rows * cols * min(rows, cols)
    return 4.0 * flop if complex_entries else flop


def _span_counts(cls_name: str, args: tuple, kwargs: dict, result) -> dict:
    """Work counts of one from_spanning call, from its stack shape."""
    mats = args[1]
    rank = result.dim if result is not None else 0
    if not mats:
        return {"rows_in": 0, "rank": rank, "flop": 0.0}
    r, c = np.shape(mats[0])
    is_complex = cls_name == "Subspace"
    cols = r * c * (1 if is_complex else 2)
    return {"rows_in": len(mats), "rank": rank, "flop": svd_flop(len(mats), cols, is_complex)}


def _nullspace_counts(args: tuple, kwargs: dict, result) -> dict:
    """null_space(a.T) factors the M x M complex U of the M x d image stack."""
    images = args[1]
    m = 1
    for extent in getattr(images[0], "shape", ()):
        m *= extent
    return {"factor_bytes": 16.0 * m * m}


def _fiber_dim_point(sphere: str, args: tuple, kwargs: dict, result) -> dict:
    # (chi, p, q) on s3 and (chi, psi, p, q) on s4
    return {"point": (sphere,) + tuple(args[:3 if sphere == "s3" else 4])}


COUNTERS = {
    "Subspace.from_spanning": functools.partial(_span_counts, "Subspace"),
    "RealSpan.from_spanning": functools.partial(_span_counts, "RealSpan"),
    "nullspace": _nullspace_counts,
    "s3_fiber_dimension": functools.partial(_fiber_dim_point, "s3"),
    "s4_fiber_dimension": functools.partial(_fiber_dim_point, "s4"),
}


class Tracer:
    """In-memory span recorder for one job."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counts: dict[int, dict] = {}
        self._stack = [-1]

    def _wrap(self, name: str, fn, counter=None, materialize: bool = False):
        names, starts, ends, parents, stack = (self.names, self.starts, self.ends,
                                               self.parents, self._stack)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if materialize:
                # from_spanning accepts any iterable; count it without consuming it
                args = (args[0], list(args[1])) + args[2:]
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            result = None
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
                if counter is not None:  # also when the call raised: result is None
                    counts[idx] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ncgauge" or n.startswith("ncgauge."))]
        for name, module_name, path in SPANS:
            owner = importlib.import_module(module_name)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            counter = COUNTERS.get(path)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, counter, materialize=True))
                setattr(owner, attr, wrapped)
            elif cls_path:
                setattr(owner, attr, self._wrap(name, raw, counter))
            else:
                wrapped = self._wrap(name, raw, counter)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            setattr(module, key, wrapped)

    def self_ns(self) -> list[int]:
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[idx] - self.starts[idx]
        return own

    def _inside(self, idx: int, name: str) -> bool:
        parent = self.parents[idx]
        while parent >= 0:
            if self.names[parent] == name:
                return True
            parent = self.parents[parent]
        return False

    def summary(self) -> dict:
        """Per-name calls and self seconds, plus the computed work counts."""
        out: dict[str, float] = defaultdict(float)
        for name, own in zip(self.names, self.self_ns()):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own / 1e9
        strata = set()
        for idx, c in self.counts.items():
            name = self.names[idx]
            if name == "linalg.from_spanning":
                out["linalg.from_spanning.rows_in"] += c["rows_in"]
                out["linalg.from_spanning.rank_kept"] += c["rank"]
                out["linalg.from_spanning.svd_gflop"] += c["flop"] / 1e9
                if self._inside(idx, "spectral.c_d_algebra"):
                    out["spectral.c_d_algebra.span_calls"] += 1
                if self._inside(idx, "spectral.one_form_space"):
                    out["spectral.one_form_space.svd_gflop"] += c["flop"] / 1e9
            elif name == "linalg.nullspace":
                out["linalg.nullspace.factor_gib"] += c["factor_bytes"] / 2 ** 30
            elif name == "toric.fiber_dimension":
                strata.add(_stratum_key(c["point"]))
        out["toric.fiber_dimension.strata"] = len(strata)
        return dict(out)

    def write(self, fh, job: str) -> None:
        """Append the spans as csv rows: job, id, parent, name, start_ns, end_ns."""
        for idx, (name, parent, start, end) in enumerate(
                zip(self.names, self.parents, self.starts, self.ends)):
            fh.write(f"{job},{idx},{parent},{name},{start},{end}\n")


def _stratum_key(point: tuple) -> tuple:
    """Stratum of a fiber_dimension call, read with the package's own labels."""
    from ncgauge import BasePoint3, BasePoint4, stratum3, stratum4

    if point[0] == "s3":
        _, chi, _, q = point
        return ("s3", q, stratum3(BasePoint3(chi), q)[0])
    _, chi, psi, _, q = point
    return ("s4", q, stratum4(BasePoint4(chi, psi), q)[0])
