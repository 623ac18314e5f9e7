"""Job server: imports ncgauge once, then runs each job in a forked child.

Usage: ``python3 worker.py <src dir>``, started by run.py with BLAS pinned
to one thread.  It imports the package, runs the untimed warm-up job, and
writes one JSON line ``{"ready": ..., "env": ...}`` on stdout.  After that
it reads one JSON request per stdin line, ``{"argv", "job", "trace",
"spans"}``, and answers each with one JSON result line.

Each job runs in a child forked after the imports, with its address space
capped, so a job that exhausts memory (and the interpreter state numpy
may leave damaged after a MemoryError) never reaches the next job.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import os
import platform
import resource
import sys
import time

# address-space cap of each job process
JOB_ADDRESS_SPACE = 4 * 2 ** 30


def _numeric_env() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "job_address_space_gib": JOB_ADDRESS_SPACE / 2 ** 30,
    }


def _call_main(cli, argv: list[str]) -> tuple[int | None, str | None]:
    try:
        return cli.main(argv), None
    except SystemExit as exc:  # argparse rejects bad input this way
        return exc.code if isinstance(exc.code, int) else 2, None
    except Exception as exc:  # a failing job is a measured outcome, not a harness fault
        return None, f"{type(exc).__name__}: {str(exc)[:300]}"


def _job_child(cli, request: dict, wfd: int) -> None:
    """Body of the forked job process; never returns."""
    status = 1
    try:
        resource.setrlimit(resource.RLIMIT_AS, (JOB_ADDRESS_SPACE, JOB_ADDRESS_SPACE))
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.dup2(devnull, 2)
        tracer = None
        if request["trace"]:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code, error = _call_main(cli, request["argv"])
            job_s = time.perf_counter() - start
        result = {"exit": code, "error": error, "job_s": job_s,
                  "stdout": out.getvalue(), "stderr": err.getvalue()}
        if tracer is not None:
            result["layers"] = tracer.summary()
            result["span_s"] = sum(tracer.self_ns()) / 1e9
            with gzip.open(request["spans"], "at", compresslevel=1, encoding="utf-8") as fh:
                tracer.write(fh, request["job"])
        payload = json.dumps(result).encode()
        view = memoryview(payload)
        while view:
            view = view[os.write(wfd, view):]
        status = 0
    finally:
        os._exit(status)


def run_job(cli, request: dict) -> dict:
    rfd, wfd = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        _job_child(cli, request, wfd)
    os.close(wfd)
    chunks = []
    with os.fdopen(rfd, "rb") as fh:
        while chunk := fh.read(1 << 20):
            chunks.append(chunk)
    _, status, usage = os.wait4(pid, 0)
    outer_s = time.perf_counter() - start
    if chunks:
        result = json.loads(b"".join(chunks))
    else:
        result = {"exit": None, "error": f"JobDied: wait status {status}", "job_s": outer_s,
                  "stdout": "", "stderr": ""}
    result["maxrss_kib"] = usage.ru_maxrss
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    return result


def main() -> int:
    proto = os.fdopen(os.dup(1), "w", encoding="utf-8")
    os.dup2(2, 1)  # stray writes to fd 1 must not corrupt the protocol
    sys.path.insert(0, sys.argv[1])
    from ncgauge import cli

    from jobs import WARM_UP

    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(list(WARM_UP))
    proto.write(json.dumps({"ready": True, "env": _numeric_env()}) + "\n")
    proto.flush()
    for line in sys.stdin:
        proto.write(json.dumps(run_job(cli, json.loads(line))) + "\n")
        proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
