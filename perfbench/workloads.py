"""The three benchmark workloads: seeded inputs, ops and their oracles.

A workload is a fixed list of ops built once from ``--seed``; a run repeats
the list in passes.  Every op calls tvrates through module attributes at
call time (``tvrates.run_sweep``, ``tvrates.cli.main``, ...) so that the
traced run's wrappers see each call.

* ``sweep``: ``run_sweep`` + ``emit_report`` (csv, json, svg) on each of the
  four ``default_scenarios()``; one op per scenario.  The last scenario goes
  through ``tvrates sweep`` in process, from a scenario file written at
  set-up, so the ``cli`` layer is measured on fixed inputs too.  The
  headline end-to-end case, and the only one with golden output.  Fixed
  inputs, the seed is ignored.
* ``certify``: ``tvrates certify`` in process on seeded 1-D mixture pairs,
  each under the three regimes; one op per CLI call.  The CLI user's path:
  no shared grid, and multi-component laws make the quantile bisection work.
* ``transport``: ``ot_exact`` / ``ot_entropic`` on seeded uniform atom
  clouds; one op per solver call.  The only user of the discrete solvers;
  its 1-D and 2-D problems sit on both sides of any 1-D special case, and
  the near and far 1-D pairs need deep and shallow entropic annealing.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os

import numpy as np

import oracles
import tvrates
import tvrates.cli

# certify: pairs per pass and the perturbation families, cycled.
CERTIFY_PAIRS = 24
FAMILIES = ("translate", "scale", "mixture-weight", "smoothed-sequence")
REGIMES = ("lemma1", "lemma2", "pointwise")
H_RANGE = (1e-5, 0.5)

# transport: 16x16 LPs per pass, and the cost exponent of every problem.
LP_BATCH = 32
Q = 2.0

# Per-op deadline in seconds, about ten times the slowest op seen on a
# 2-core x86 box with BLAS pinned to one thread.
DEADLINE_S = {"sweep": 10.0, "certify": 1.0, "transport": 20.0}


class Op:
    """One closed-loop request: ``run()`` is timed, ``check(output)`` is not."""

    def __init__(self, label: str, inputs: dict, run, check):
        self.label = label
        self.inputs = inputs
        self.run = run
        self.check = check


class Workload:
    def __init__(self, name: str, ops: list, notes: dict | None = None):
        self.name = name
        self.ops = ops
        self.deadline_s = DEADLINE_S[name]
        self.notes = notes if notes is not None else {}


def build(name: str, seed: int, workdir: str) -> Workload:
    return {"sweep": _sweep, "certify": _certify, "transport": _transport}[name](
        seed, workdir
    )


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep(seed: int, workdir: str) -> Workload:
    golden = oracles.GoldenReports()
    out_dir = os.path.join(workdir, "reports")
    formats = oracles.REPORT_FORMATS
    scenarios = tvrates.default_scenarios()

    def api_op(sc):
        def run():
            rep = tvrates.run_sweep(sc)
            return rep.rows, tvrates.emit_report(rep, out_dir, formats)

        def check(out):
            rows, paths = out
            golden.check_rows(sc.name, rows)
            golden.check_files(sc.name, paths)

        return Op(sc.name, {"scenario": sc.name}, run, check)

    def cli_op(sc):
        path = os.path.join(workdir, f"{sc.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(sc.to_json(), fh)
        argv = ["sweep", "--scenario", path, "--out", out_dir,
                "--formats", ",".join(formats)]

        def run():
            return _cli(argv)

        def check(result):
            if result[0] == tvrates.cli.EXIT_CERT_VIOLATED:
                raise oracles.Mismatch("violated-certificate", "bounds",
                                       f"{sc.name}: tvrates sweep exit {result[0]}")
            golden.check_files(sc.name, json.loads(_exit_ok(result)[1])["written"])

        return Op(f"cli:{sc.name}", {"argv": argv, "scenario": sc.to_json()}, run, check)

    ops = [api_op(sc) for sc in scenarios[:-1]] + [cli_op(scenarios[-1])]
    return Workload("sweep", ops, {"report_versions": golden.versions})


def _cli(argv):
    """``(exit code, stdout, stderr)`` of ``tvrates.cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tvrates.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _exit_ok(result):
    code, out, err = result
    if code != 0:
        raise oracles.Mismatch("exit-code", "cli", f"exit {code}: {err.strip()}")
    return result


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _mixture_doc(w, m, sd) -> dict:
    return {
        "d": 1,
        "components": [
            {"w": float(wk), "mean": [float(mk)], "cov": [[float(sk * sk)]]}
            for wk, mk, sk in zip(w, m, sd)
        ],
    }


def certify_pair(rng, family: str):
    """A base with 1-3 components and its perturbation at a log-uniform h.

    The families mirror the sweep's: translate by h, scale by 1 + h, blend
    with the base translated by +2 at weight h, and that blend with both
    laws smoothed by N(0, 1).
    """
    k = int(rng.integers(1, 4))
    w = rng.dirichlet(np.ones(k))
    m = rng.uniform(-2.0, 2.0, k)
    sd = rng.uniform(0.6, 1.5, k)
    h = float(math.exp(rng.uniform(math.log(H_RANGE[0]), math.log(H_RANGE[1]))))
    if family == "translate":
        return _mixture_doc(w, m, sd), _mixture_doc(w, m + h, sd), h
    if family == "scale":
        return _mixture_doc(w, m, sd), _mixture_doc(w, m * (1 + h), sd * (1 + h)), h
    bw = np.concatenate([w * (1.0 - h), w * h])
    bm = np.concatenate([m, m + 2.0])
    bsd = np.concatenate([sd, sd])
    if family == "mixture-weight":
        return _mixture_doc(w, m, sd), _mixture_doc(bw, bm, bsd), h
    return (_mixture_doc(w, m, np.sqrt(sd * sd + 1.0)),
            _mixture_doc(bw, bm, np.sqrt(bsd * bsd + 1.0)), h)


def _certify(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(CERTIFY_PAIRS):
        family = FAMILIES[i % len(FAMILIES)]
        doc_a, doc_b, h = certify_pair(rng, family)
        paths = []
        for tag, doc in (("a", doc_a), ("b", doc_b)):
            path = os.path.join(workdir, f"pair{i}-{tag}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            paths.append(path)
        laws = (tvrates.GaussianMixture.from_json(doc_a),
                tvrates.GaussianMixture.from_json(doc_b))
        inputs = {"family": family, "h": h, "a": doc_a, "b": doc_b}
        for regime in REGIMES:
            ops.append(_certify_op(i, regime, paths, laws, family, h, inputs))
    return Workload("certify", ops)


def _certify_op(i, regime, paths, laws, family, h, inputs) -> Op:
    argv = ["certify", "--a", paths[0], "--b", paths[1], "--regime", regime]

    def run():
        return _cli(argv)

    def check(result):
        oracles.check_certificate(json.loads(_exit_ok(result)[1]), *laws, family, h)

    return Op(f"pair{i}/{regime}", dict(inputs, regime=regime), run, check)


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------

def _atoms(x: np.ndarray):
    return tvrates.AtomSet(x, np.full(len(x), 1.0 / len(x)))


def _transport(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng(seed)
    problems = [(f"lp16x16-2d[{j}]", rng.uniform(size=(16, 2)),
                 rng.uniform(size=(16, 2)), ("exact",)) for j in range(LP_BATCH)]
    x = rng.uniform(size=(64, 1))
    problems.append(("1d-n64-near", x, x + 0.02, ("exact", "entropic")))
    problems.append(("1d-n64-far", x, x + 0.4, ("exact", "entropic")))
    problems.append(("1d-n256", rng.uniform(size=(256, 1)),
                     rng.uniform(size=(256, 1)), ("exact",)))
    problems.append(("2d-n64", rng.uniform(size=(64, 2)),
                     rng.uniform(size=(64, 2)), ("exact", "entropic")))
    small, large = [], []
    for label, xa, xb, solvers in problems:
        # exact reference cost, computed at the first check (outside timing)
        ref = functools.cache(functools.partial(oracles.assignment_cost, xa, xb, Q))
        for solver in solvers:
            op = _transport_op(label, solver, xa, xb, ref)
            (small if label.startswith("lp16") else large).append(op)
    # Spread the small LPs between the large solves, so that their latency
    # samples cover the whole pass rather than one burst at its start.
    per = -(-len(small) // len(large))
    ops = []
    for i, op in enumerate(large):
        ops += small[i * per:(i + 1) * per] + [op]
    return Workload("transport", ops)


def _transport_op(label, solver, xa, xb, ref) -> Op:
    a, b = _atoms(xa), _atoms(xb)
    inputs = {"problem": label, "solver": solver, "n": len(xa), "d": xa.shape[1],
              "a": xa.tolist(), "b": xb.tolist()}
    if solver == "exact":
        def run():
            return tvrates.ot_exact(a, b, Q)[0].value

        def check(value):
            oracles.check_exact(value, Q, ref())
    else:
        rtol = 5e-3  # ot_entropic's default relative accuracy

        def run():
            return tvrates.ot_entropic(a, b, Q, rtol=rtol).value

        def check(value):
            oracles.check_entropic(value, Q, ref(), rtol)

    return Op(f"{label}/{solver}", inputs, run, check)
