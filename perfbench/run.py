"""ncgauge benchmark: fixed CLI job mixes, checked outputs, end-to-end and per-layer numbers.

Run from the repository root:

    python3 perfbench/run.py --workload check-grow --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 0

One client runs the jobs of a workload one after another (a closed loop)
through ``ncgauge.cli.main`` in a job server (worker.py) that forks a
fresh capped process per job.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` adds one traced pass and prints the per-layer
metrics.  The last stdout line is one JSON object.  See README.md.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before anything here or in the worker imports numpy
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

from check import Checker, outcome  # noqa: E402
from jobs import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"  # span files of traced runs, under the checkout root
SETUP_REPEATS = 5
# a short job is repeated within a pass until its samples cover MIN_JOB_S,
# at most MAX_SAMPLES times; a job's time is its least sample over the run
MIN_JOB_S = 0.3
MAX_SAMPLES = 9
HS_SERIES = {4: "check-hs-4", 5: "check-hs-5", 6: "check-hs-6"}

# per-layer metrics printed by a traced run: (name, unit)
LAYER_METRICS = [(f"cli.job_s.{job.name}", "s") for jobs in WORKLOADS.values() for job in jobs] + [
    ("cli.glue.self_s", "s"), ("cli.check.exponent_N", "slope"),
    ("models.load_model.calls", "count"), ("models.load_model.self_s", "s"),
    ("linalg.from_spanning.calls", "count"), ("linalg.from_spanning.self_s", "s"),
    ("linalg.from_spanning.rows_in", "count"), ("linalg.from_spanning.rank_ratio", "ratio"),
    ("linalg.from_spanning.svd_gflop", "GFLOP"),
    ("linalg.nullspace.calls", "count"), ("linalg.nullspace.self_s", "s"),
    ("linalg.nullspace.factor_gib", "GiB"),
    ("linalg.generated_algebra.calls", "count"), ("linalg.generated_algebra.self_s", "s"),
    ("linalg.op_norm.calls", "count"), ("linalg.op_norm.self_s", "s"),
    ("staralg.center.calls", "count"), ("staralg.center.self_s", "s"),
    ("staralg.FiniteStarAlgebra.calls", "count"), ("staralg.FiniteStarAlgebra.self_s", "s"),
    ("staralg.minimal_projections.self_s", "s"),
    ("spectral.check_axioms.self_s", "s"),
    ("spectral.pi.calls", "count"), ("spectral.pi.self_s", "s"),
    ("spectral.one_form_space.self_s", "s"), ("spectral.one_form_space.exponent_N", "slope"),
    ("spectral.c_d_algebra.self_s", "s"), ("spectral.c_d_algebra.span_calls", "count"),
    ("spectral.compute_aj.self_s", "s"), ("spectral.verify_aj_properties.self_s", "s"),
    ("gauge.gauge_lie_algebra.calls", "count"), ("gauge.gauge_lie_algebra.self_s", "s"),
    ("gauge.random_perturbation.self_s", "s"), ("gauge.gauge_field.self_s", "s"),
    ("gauge.fluctuate.self_s", "s"), ("gauge.doubled_fluctuation.self_s", "s"),
    ("gauge.gauge_transform_field.self_s", "s"),
    ("localize.localize.self_s", "s"), ("localize.norm_is_sup.self_s", "s"),
    ("localize.fiber_gauge_action.self_s", "s"), ("localize.omega_bundle.self_s", "s"),
    ("localize.group_bundle_dims.self_s", "s"),
    ("toric.norm_profile.self_s", "s"),
    ("toric.fiber_norm.calls", "count"), ("toric.fiber_norm.self_s", "s"),
    ("toric.eval.calls", "count"), ("toric.eval.self_s", "s"), ("toric.eval_per_norm", "ratio"),
    ("toric.fiber_dimension.calls", "count"), ("toric.fiber_dimension.self_s", "s"),
    ("toric.fiber_dimension.useful_ratio", "ratio"),
    ("toric.stratum_scan.self_s", "s"),
    ("torus.clock_shift.calls", "count"),
    ("reporting.render.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


class Worker:
    """One job server process; its start-up to ready time is the set-up time."""

    def __init__(self, src: Path):
        start = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(src)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if not line:
            self.close()
            raise RuntimeError("the job server exited before it was ready")
        self.env = json.loads(line)["env"]

    def run(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the job server died during {request['job']}")
        return json.loads(line)

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()


def start_workers(src: Path) -> tuple[Worker, list[float]]:
    """Start the server SETUP_REPEATS times; keep the last one running."""
    setups = []
    for i in range(SETUP_REPEATS):
        worker = Worker(src)
        setups.append(worker.setup_s)
        if i < SETUP_REPEATS - 1:
            worker.close()
    return worker, setups


def _same_output(a: dict, b: dict) -> bool:
    return all(a[k] == b[k] for k in ("exit", "error", "stdout", "stderr"))


def run_job(worker: Worker, job, seed: int, spans: str | None = None) -> dict:
    """The first sample's output with every sample's time; one sample when traced.

    ``job_s`` is the median sample of this pass; ``samples_s`` holds them all.
    """
    request = {"argv": [*job.argv, "--seed", str(seed)], "job": job.name,
               "trace": spans is not None, "spans": spans}
    samples = [worker.run(request)]
    while (spans is None and len(samples) < MAX_SAMPLES
           and sum(r["job_s"] for r in samples) < MIN_JOB_S):
        samples.append(worker.run(request))
    result = dict(samples[0])
    for key in ("job_s", "cpu_s"):
        result[key] = statistics.median(r[key] for r in samples)
    result["samples_s"] = [r["job_s"] for r in samples]
    result["maxrss_kib"] = max(r["maxrss_kib"] for r in samples)
    result["samples"] = len(samples)
    result["repeatable"] = all(_same_output(samples[0], r) for r in samples[1:])
    return result


def job_times(passes: list[list[dict]]) -> list[float]:
    """Each job's time: the least of all its samples over the run's passes."""
    return [min(s for p in passes for s in p[i]["samples_s"]) for i in range(len(passes[0]))]


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log y against log x."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def layer_metrics(jobs, untraced: list[list[dict]], traced: list[dict]) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for result in traced:
        for key, value in result.get("layers", {}).items():  # none if the job process died
            totals[key] += value
    job_s = {job.name: t for job, t in zip(jobs, job_times(untraced))}
    by_name = {job.name: result.get("layers", {}) for job, result in zip(jobs, traced)}
    out = {name: totals.get(name, 0.0) for name, _ in LAYER_METRICS}
    out.update({f"cli.job_s.{name}": t for name, t in job_s.items()})
    series = [n for n in HS_SERIES if HS_SERIES[n] in job_s]
    if len(series) > 1:
        out["cli.check.exponent_N"] = slope(series, [job_s[HS_SERIES[n]] for n in series])
        flops = [by_name[HS_SERIES[n]].get("spectral.one_form_space.svd_gflop", 0.0)
                 for n in series]
        if all(flops):
            out["spectral.one_form_space.exponent_N"] = slope(series, flops)
    if totals["linalg.from_spanning.rows_in"]:
        out["linalg.from_spanning.rank_ratio"] = (totals["linalg.from_spanning.rank_kept"]
                                                  / totals["linalg.from_spanning.rows_in"])
    if totals["toric.fiber_norm.calls"]:
        out["toric.eval_per_norm"] = totals["toric.eval.calls"] / totals["toric.fiber_norm.calls"]
    if totals["toric.fiber_dimension.calls"]:
        out["toric.fiber_dimension.useful_ratio"] = (totals["toric.fiber_dimension.strata"]
                                                     / totals["toric.fiber_dimension.calls"])
    untraced_s = statistics.median(sum(r["job_s"] for r in p) for p in untraced)
    out["trace.overhead_ratio"] = sum(r["job_s"] for r in traced) / untraced_s - 1
    return out


def measure(name: str, src: Path, seed: int, seconds: float, trace: bool):
    """Set-up times, the untraced passes, the traced pass (or None) and the environment."""
    jobs = WORKLOADS[name]
    worker, setups = start_workers(src)
    try:
        passes = []
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            passes.append([run_job(worker, job, seed) for job in jobs])
            now = time.perf_counter()
            if now - start + (now - pass_start) > seconds:
                break
        traced = None
        if trace:
            out_dir = Path(OUT_DIR)
            out_dir.mkdir(exist_ok=True)
            spans = out_dir / f"spans-{name}-seed{seed}.csv.gz"
            with gzip.open(spans, "wt", encoding="utf-8") as fh:
                fh.write("job,id,parent,name,start_ns,end_ns\n")
            traced = [run_job(worker, job, seed, str(spans)) for job in jobs]
    finally:
        worker.close()
    return setups, passes, traced, worker.env


def run_workload(name: str, src: Path, seed: int, seconds: float, trace: bool,
                 checker: Checker) -> dict:
    jobs = WORKLOADS[name]
    setups, passes, traced, env = measure(name, src, seed, seconds, trace)
    print(f"perfbench {name} seed={seed}: {len(passes)} pass(es) of {len(jobs)} jobs, "
          f"closed loop, one client")
    print("env: " + json.dumps(env, sort_keys=True))
    results = [r for p in passes for r in p] + (traced or [])
    times = job_times(passes)
    outcomes = []
    for idx, result in enumerate(results):
        job = jobs[idx % len(jobs)]
        fails = checker.job_failures(job, result)
        if not result["repeatable"]:
            fails.append(("unrepeatable", "repeats of the job printed different output"))
        verdict = outcome(job, fails)
        outcomes.append(verdict)
        if idx < len(jobs):
            note = {"ok": "ok", "known": "FAIL (known defect)", "unexpected": "FAIL"}[verdict]
            samples = sum(len(p[idx]["samples_s"]) for p in passes)
            print(f"job {job.name}: {times[idx]:.3f} s (least of {samples}; first pass median "
                  f"{result['job_s']:.3f} s, cpu {result['cpu_s']:.3f} s), "
                  f"{result['maxrss_kib'] / 1024:.0f} MiB, {note}")
            for kind, message in fails:
                print(f"    {kind}: {message}")
            if verdict == "known":
                print(f"    known defect: {job.known.why}")
    correct = "unexpected" not in outcomes
    if traced:
        for job, before, after in zip(jobs, passes[0], traced):
            if not _same_output(before, after):
                correct = False
                print(f"trace changed the output of {job.name}")
            print(f"traced {job.name}: spans cover {after.get('span_s', 0.0):.3f} s of "
                  f"{after['job_s']:.3f} s, untraced {before['job_s']:.3f} s")

    attempted = len(outcomes)
    failed = sum(v != "ok" for v in outcomes)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(times), "s"),
        "geomean_job_s": (geomean(times), "s"),
        "peak_rss_mib": (max(r["maxrss_kib"] for p in passes for r in p) / 1024, "MiB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    print(f"failed_ratio {failed}/{attempted} = {failed / attempted:.4g} ratio")
    if traced:
        units = dict(LAYER_METRICS)
        layers = layer_metrics(jobs, passes, traced)
        metrics = {key: (value, units[key]) for key, value in layers.items()}
        for key, (value, unit) in metrics.items():
            print(f"{key} {value:.6g} {unit}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {key: {"value": value, "unit": unit}
                        for key, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0,
                    help="measure whole passes until the next would overrun this")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = Path("src").resolve()
    if not (src / "ncgauge" / "cli.py").is_file():
        print("error: run from the root of an ncgauge checkout (no src/ncgauge/cli.py)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))  # the output checks evaluate reference norms
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    checker = Checker()
    try:
        results = {name: run_workload(name, src, args.seed, args.seconds, bool(args.trace),
                                      checker) for name in names}
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{key}": m for name, r in results.items()
                    for key, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
