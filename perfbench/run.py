"""tvrates benchmark: end-to-end metrics per workload, per-module metrics
from a traced run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --selftest

Each workload runs as a closed loop in one fresh single-process interpreter
(``worker.py``) with BLAS pinned to one thread: the next op starts when the
previous one returns.  Set-up time is measured from process start to the
first timed op in ``SETUP_SAMPLES`` fresh interpreters and reported as their
median.  Every op output is checked against an independent oracle
(``oracles.py``).

Times are wall-clock times of the calls into tvrates.  A failed op
(exception, missed deadline, non-zero exit code, violated certificate or
oracle mismatch) makes the run ``correct: false`` and counts as missing
every latency limit; ``wall_s`` comes only from passes in which every op
succeeded.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` its metrics are ``END_TO_END``; the lines before it give
all six end-to-end metrics, adding ``op_ms_p90`` (only from runs of at least
100 ops) and ``fail_ratio`` (``failed / attempted``), with their sample
counts, the failures by kind and module, and the machine.  With
``--trace 1`` the metrics are the ``per_layer`` ones of ``BENCHMARK.json``
per traced pass, each module's import time and ``trace.overhead_ratio``;
the lines before it give every traced metric, the per-function error counts
too.  Such runs alternate untraced and traced passes in one process, so the
overhead compares like with like.

``--selftest`` makes two traced runs of each workload and checks that call
counts repeat exactly and that every binding site the tracer wraps is hit by
the workload expected to use it (``baseline.json``); it prints the sweep's
call counts beside the recorded baseline and the tracing overhead, and exits
1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("sweep", "certify", "transport")
# The layers of tracer.LAYERS, whose import times are reported.
LAYERS = ("distributions", "spectral", "transport", "bounds", "harness", "cli")

SETUP_SAMPLES = 3
# Percentiles are reported only from runs with at least this many ops.
MIN_SAMPLES = {50: 20, 90: 100}
# Whole-run budget; a run must end within 180 s.
RUN_BUDGET_S = 170.0
# Metrics printed on the result line with --trace 0, and their units.
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_ms_p50": "ms", "peak_rss_mb": "MiB"}


def per_layer_names() -> list:
    """The metrics printed on the result line with ``--trace 1``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)["per_layer"]]


class BenchError(RuntimeError):
    pass


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks; ``inf`` marks a failed op."""
    s = sorted(values)
    k = (len(s) - 1) * q / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(s) - 1)
    if math.isinf(s[lo]) or (math.isinf(s[hi]) and k > lo):
        return math.inf
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def median(values) -> float:
    return percentile(values, 50)


def spawn(workload, seed, seconds, deadline, trace=0, setup_only=False):
    """Run one worker to completion; returns its JSON result and stderr."""
    cmd = [sys.executable]
    if trace:
        cmd += ["-X", "importtime"]
    cmd += [WORKER, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    cmd += ["--t0", repr(t0)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker exceeded the run budget") from None
    errors = [ln for ln in proc.stderr.splitlines()
              if not ln.startswith("import time:")]
    if errors:
        print("\n".join(errors), file=sys.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(lines[-1]), proc.stderr


def import_times(stderr: str) -> dict:
    """``<layer>.import_s`` (cumulative) from ``python -X importtime``."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = [p.strip() for p in line[len("import time:"):].split("|")]
        if len(parts) == 3 and parts[2].startswith("tvrates."):
            layer = parts[2][len("tvrates."):]
            if layer in LAYERS:
                out[f"{layer}.import_s"] = int(parts[1]) / 1e6
    return out


def failed_as_inf(p: dict) -> list:
    """A pass's op latencies (ms); a failed op misses every latency limit."""
    return [math.inf if i in p["failed"] else ms
            for i, ms in enumerate(p["latencies_ms"])]


def overhead(passes: list) -> float:
    """Median traced pass time over median untraced pass time, each pass
    counting only its ops that succeeded (the same ops fail in every pass)."""
    def pass_time(traced):
        return median([sum(ms for i, ms in enumerate(p["latencies_ms"])
                           if i not in p["failed"])
                       for p in passes if p["traced"] == traced])

    return pass_time(True) / pass_time(False)


def measure(workload: str, seed: int, seconds: float, trace: int,
            deadline: float) -> tuple[dict, dict]:
    """``(result line, report)`` for one run of one workload."""
    if trace:
        res, stderr = spawn(workload, seed, seconds, deadline, trace=1)
        setups = []
    else:
        setups = [spawn(workload, seed, seconds, deadline, setup_only=True)[0]
                  for _ in range(SETUP_SAMPLES - 1)]
        res, stderr = spawn(workload, seed, seconds, deadline)
        setups.append(res)
    untraced = [p for p in res["passes"] if not p["traced"]]
    clean = [p for p in untraced if not p["failed"]]
    lat = [ms for p in untraced for ms in failed_as_inf(p)]
    # name -> (value, unit, what was sampled)
    stats = {}
    if setups:
        stats["setup_s"] = (median([e["setup_s"] for e in setups]), "s",
                            f"median of {len(setups)} fresh interpreters")
    if clean:
        stats["wall_s"] = (median([sum(p["latencies_ms"]) / 1e3 for p in clean]),
                           "s", f"median of {len(clean)} passes without a failed op")
    for q, need in MIN_SAMPLES.items():
        if len(lat) >= need:
            stats[f"op_ms_p{q}"] = (percentile(lat, q), "ms", f"p{q} of {len(lat)} ops")
    failures = res["failures"]
    by_module = {}
    for f in failures:
        key = f"{f['kind']} in {f['module']}"
        by_module[key] = by_module.get(key, 0) + 1
    correct = not failures
    if trace:
        metrics = dict(res["layer_metrics"])
        metrics.update(import_times(stderr))
        metrics["trace.overhead_ratio"] = overhead(res["passes"])
        shown = metrics
        metrics = {name: metrics[name] for name in per_layer_names()}
    else:
        shown = {}
        metrics = {name: stats[name][0] for name in END_TO_END if name in stats}
        metrics["peak_rss_mb"] = res["peak_rss_mb"]
    report = {"workload": workload, "seed": seed, "trace": trace, "stats": stats,
              "peak_rss_mb": res["peak_rss_mb"], "attempted": res["attempted"],
              "failures": by_module, "machine": res["machine"], "notes": res["notes"],
              "traced_metrics": shown}
    line = {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }
    return line, report


def unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    kind = name.rsplit(".", 1)[-1]
    return {"calls": "count", "errors": "count", "self_s": "s",
            "import_s": "s"}.get(kind, "ratio")


def print_report(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"closed loop, 1 client, 1 process, BLAS threads 1"
          + ("  (traced)" if report["trace"] else ""))
    for name in ("setup_s", "wall_s", "op_ms_p50", "op_ms_p90"):
        if name in report["stats"]:
            value, unit_, what = report["stats"][name]
            print(f"  {name:<12} {value:.6g} {unit_}  {what}")
        elif name == "setup_s":
            print(f"  {name:<12} n/a (not measured in a traced run)")
        elif name == "wall_s":
            print(f"  {name:<12} n/a (every pass had a failed op)")
        else:
            print(f"  {name:<12} n/a (needs >= {MIN_SAMPLES[int(name[-2:])]} ops)")
    n_failed = sum(report["failures"].values())
    print(f"  fail_ratio   {n_failed / report['attempted']:.6g}"
          f"  ({n_failed} of {report['attempted']} ops)")
    for key, count in sorted(report["failures"].items()):
        print(f"    {count:>5}  {key}")
    print(f"  peak_rss_mb  {report['peak_rss_mb']:.6g} MiB")
    print(f"  notes   {json.dumps(report['notes'], sort_keys=True)}")
    print(f"  machine {json.dumps(report['machine'], sort_keys=True)}")
    for name, value in sorted(report["traced_metrics"].items()):
        print(f"  {name:<48} {value:.6g} {unit(name)}")


def selftest(seconds: float = 1.0) -> int:
    """Repeatability, binding-site coverage, baseline counts, overhead."""
    with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as fh:
        baseline = json.load(fh)
    ok = True
    for workload in WORKLOADS:
        runs = []
        for _ in range(2):
            deadline = time.monotonic() + RUN_BUDGET_S
            runs.append(spawn(workload, 0, seconds, deadline, trace=1)[0])
        counts = [r["ok_counts"] for r in runs]
        differ = {k: (counts[0][k], counts[1][k]) for k in counts[0]
                  if counts[0][k] != counts[1][k]}
        print(f"{workload}: completed-op call counts "
              + ("repeat exactly" if not differ else f"DIFFER {differ}"))
        ok &= not differ
        hits = runs[0]["site_hits"]
        missed = [s for s in baseline["expected_sites"][workload] if not hits.get(s)]
        print(f"{workload}: {len(baseline['expected_sites'][workload])} expected "
              f"binding sites, missed {missed}")
        ok &= not missed
        unexpected = sorted(s for s in hits if s not in baseline["all_sites"])
        if unexpected:
            print(f"{workload}: binding sites not in baseline.json: {unexpected}")
            ok = False
        ratios = [overhead(r["passes"]) for r in runs]
        print(f"{workload}: tracing overhead (traced / untraced pass) "
              + ", ".join(f"{r:.3f}" for r in ratios))
        if workload == "sweep":
            for name, base in baseline["sweep_calls_per_pass"].items():
                now = runs[0]["layer_metrics"][f"{name}.calls"]
                print(f"sweep: {name}.calls per pass {now:g} (baseline {base})")
    never = sorted(set(baseline["all_sites"])
                   - {s for sites in baseline["expected_sites"].values() for s in sites})
    print(f"binding sites no workload uses: {never}")
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "tvrates")):
        print("no tvrates sources under src/; run from a tvrates checkout",
              file=sys.stderr)
        return 2
    try:
        if args.selftest:
            return selftest()
        if args.workload is None:
            ap.error("--workload is required")
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        for name in names:
            deadline = time.monotonic() + RUN_BUDGET_S
            line, report = measure(name, args.seed, args.seconds, args.trace, deadline)
            print_report(report)
            print(json.dumps(line))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
