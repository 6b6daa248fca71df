"""One workload process: set-up, warm-up, then timed passes over the ops.

Started by ``run.py`` in a fresh interpreter.  BLAS is pinned to one thread
before numpy is imported.  The last stdout line is a JSON object with the
set-up time and, unless ``--setup-only``, the per-op timings, failures and (with
``--trace 1``) the per-layer metrics.  Failed ops are logged to stderr, one
JSON line each, with their inputs and the module they failed in.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import sys
import tempfile
import time
import traceback

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PKG_DIR = os.path.join(SRC, "tvrates") + os.sep
TMP = os.path.join(ROOT, ".perfbench_tmp")  # scratch files stay in the checkout
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402  (after the BLAS pin and the path set-up)
import scipy  # noqa: E402

import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# A run keeps measuring past --seconds until it has this many timed ops, so
# that the median latency always has enough samples.
MIN_OPS = 20
class OpDeadline(BaseException):
    """Raised by SIGALRM when an op overruns its deadline.  Not an OSError
    (``tvrates.cli.main`` catches those) and not an Exception, so no
    handler inside the package swallows it."""


def _on_alarm(signum, frame):
    raise OpDeadline()


def _where(tb) -> list[str]:
    """``module.function`` of each tvrates frame of a traceback, outermost
    first."""
    return [f"{os.path.basename(fr.filename)[:-3]}.{fr.name}"
            for fr in traceback.extract_tb(tb) if fr.filename.startswith(PKG_DIR)]


def run_op(op, deadline_s: float):
    """``(seconds, failure or None)`` for one op; the check is untimed."""
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            out = op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpDeadline as exc:
        return time.perf_counter() - t0, _failure("deadline", exc)
    except Exception as exc:
        return time.perf_counter() - t0, _failure("exception", exc)
    elapsed = time.perf_counter() - t0
    try:
        op.check(out)
    except oracles.Mismatch as exc:
        return elapsed, {"kind": exc.kind, "module": exc.module, "path": [],
                         "detail": str(exc)}
    return elapsed, None


def _failure(kind: str, exc: BaseException) -> dict:
    path = _where(exc.__traceback__)
    return {"kind": kind, "module": path[-1].split(".")[0] if path else "perfbench",
            "path": path, "detail": f"{type(exc).__name__}: {exc}"}


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    llc = "unknown"
    cache = "/sys/devices/system/cpu/cpu0/cache"
    try:
        levels = {}
        for index in os.listdir(cache):
            if index.startswith("index"):
                with open(os.path.join(cache, index, "level")) as fh:
                    level = int(fh.read())
                with open(os.path.join(cache, index, "size")) as fh:
                    levels[level] = fh.read().strip()
        llc = levels[max(levels)]
    except (OSError, ValueError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "llc": llc,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {var: os.environ[var] for var in BLAS_ENV},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGALRM, _on_alarm)
    os.makedirs(TMP, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP)
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        run_op(wl.ops[0], wl.deadline_s)  # warm-up, untimed and unchecked
        setup = {"setup_s": time.monotonic() - args.t0}
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        result = timed_passes(wl, args)
        result.update(setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(TMP)  # only if no other worker is using it
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["machine"] = machine()
    notes = dict(wl.notes)
    if "report_versions" in notes:
        notes["report_versions"] = sorted(notes["report_versions"])
    result["notes"] = notes
    print(json.dumps(result))
    return 0


def timed_passes(wl, args) -> dict:
    """Repeat the op list until ``--seconds`` have passed (and ``MIN_OPS``
    ops were timed untraced).  With tracing, odd passes are traced and even
    ones are not, so the two are measured under the same conditions.

    Each pass records every op's latency and which of its ops failed.
    """
    tr = tracer.Tracer() if args.trace else None
    passes, failures, failed_ops, logged = [], [], set(), set()
    t_begin = time.perf_counter()
    while True:
        n_pass = len(passes)
        traced = tr is not None and n_pass % 2 == 1
        if traced:
            tr.install(n_pass)
        record = {"traced": traced, "latencies_ms": [], "failed": []}
        for i, op in enumerate(wl.ops):
            op_id = n_pass * len(wl.ops) + i
            if traced:
                tr.op_id = op_id
            elapsed, failure = run_op(op, wl.deadline_s)
            record["latencies_ms"].append(elapsed * 1e3)
            if failure is not None:
                record["failed"].append(i)
                failed_ops.add(op_id)
                failures.append(failure)
                if (op.label, failure["kind"]) not in logged:
                    logged.add((op.label, failure["kind"]))
                    print(json.dumps(dict(failure, op=op.label, inputs=op.inputs)),
                          file=sys.stderr)
        if traced:
            tr.uninstall()
        passes.append(record)
        n_untraced = sum(not p["traced"] for p in passes)
        enough = len(passes) >= 2 if tr else n_untraced * len(wl.ops) >= MIN_OPS
        if enough and time.perf_counter() - t_begin >= args.seconds:
            break
    result = {"attempted": len(passes) * len(wl.ops), "failures": failures,
              "passes": passes}
    if tr is not None:
        n_traced = sum(p["traced"] for p in passes)
        metrics, ok_counts = tr.metrics(n_traced, failed_ops)
        result.update(layer_metrics=metrics, ok_counts=ok_counts,
                      site_hits=tr.site_hits)
    return result


if __name__ == "__main__":
    sys.exit(main())
