"""A fixed grid of ``tvrates certify``, ``tvrates dist`` and ``tvrates
envelope`` calls, for checking that a change leaves the command-line output
byte for byte alone.

    PYTHONPATH=src python tools/cli_grid.py OUT

writes one JSON line per call to ``OUT``: the argv, the exit code, stdout,
stderr and the warnings the call raised.  Run it on two checkouts and
compare the two files with ``cmp``.  The calls run in this process, from a
temporary directory that holds the law files, so each argv names a law by
a relative path that is the same on every run.
"""

import contextlib
import io
import itertools
import json
import os
import sys
import tempfile
import warnings

from tvrates.cli import main


def _law(*components):
    """A mixture document of ``(weight, mean, variance)`` triples."""
    return {
        "d": 1,
        "components": [{"w": w, "mean": [m], "cov": [[v]]} for w, m, v in components],
    }


LAWS = {
    "n01": _law((1.0, 0.0, 1.0)),
    "near": _law((1.0, 0.3, 1.44)),
    "wide": _law((1.0, 0.05, 1.21)),
    "bimodal": _law((0.5, -1.0, 1.0), (0.5, 1.0, 1.0)),
    "bimodal_swapped": _law((0.5, 1.0, 1.0), (0.5, -1.0, 1.0)),
    "blend": _law((0.9, 0.0, 1.0), (0.1, 2.0, 1.0)),
    "three": _law((0.2, -2.0, 0.5), (0.5, 0.0, 1.0), (0.3, 1.5, 2.0)),
    "three_shifted": _law((0.2, -1.9, 0.5), (0.5, 0.1, 1.0), (0.3, 1.6, 2.0)),
    "narrow": _law((1.0, 0.1, 0.25)),
    # inputs that each end in a typed error or a warning
    "overweight": _law((0.5, 0.0, 1.0), (0.6, 1.0, 1.0)),
    "far": _law((1.0, 1e300, 1.0)),
}

# identical laws, permuted components, K = 3 laws and pairs of mixed K
PAIRS = [
    ("n01", "n01"),
    ("n01", "near"),
    ("n01", "wide"),
    ("bimodal", "bimodal_swapped"),
    ("three", "three_shifted"),
    ("n01", "blend"),
    ("three", "near"),
    ("bimodal", "three"),
    ("narrow", "blend"),
]

REGIMES = (
    ["--regime", "lemma1"],
    ["--regime", "lemma2"],
    ["--regime", "pointwise", "--alpha", "0"],
    ["--regime", "pointwise", "--alpha", "3"],
)

# envelope tables: one law per kind above, each side, small and wide
# coverage (the widest overflows on some laws) at two resolutions
ENVELOPE_LAWS = ("n01", "bimodal", "three", "narrow", "wide", "blend")
COVERAGE = ((0, 0), (2, 3), (4, 6), (6, 12), (2, 80), (6, 400))


def calls():
    """Every argv of the grid, in a fixed order."""
    for a, b in PAIRS:
        laws = ["--a", f"{a}.json", "--b", f"{b}.json"]
        for p, q, eps, regime in itertools.product(
            (1, 2, 3, 6), (1.5, 2, 3), (0.05, 0.1, 0.3), REGIMES
        ):
            yield ["certify", *laws, "--p", str(p), "--q", str(q),
                   "--eps", str(eps), *regime]
        for q in (1.5, 2, 3, 6, 1):
            yield ["dist", *laws, "--metric", "wq", "--q", str(q)]
        for p in (0, 1, 2, 3.5):
            yield ["dist", *laws, "--metric", "rho_p", "--p", str(p)]
        yield ["dist", *laws, "--metric", "tv"]
    for bad in ("overweight", "far"):
        laws = ["--a", "n01.json", "--b", f"{bad}.json"]
        yield ["certify", *laws, "--regime", "lemma1"]
        for metric in ("wq", "tv"):
            yield ["dist", *laws, "--metric", metric]
    for law, side, (K, L), resolution in itertools.product(
        ENVELOPE_LAWS, ("density", "frequency"), COVERAGE, ([], ["--resolution", "1024"])
    ):
        yield ["envelope", "--input", f"{law}.json", "--side", side,
               "--K", str(K), "--L", str(L), *resolution]


def run(argv) -> dict:
    """The record of one call."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except Exception as exc:  # an untyped failure is a record too
                code = f"{type(exc).__name__}: {exc}"
    return {
        "argv": argv,
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
    }


def write_grid(path) -> int:
    """Write the grid's records to ``path``; returns the number of calls."""
    path = os.path.abspath(path)
    cwd = os.getcwd()
    n = 0
    with tempfile.TemporaryDirectory() as tmp, open(path, "w", encoding="utf-8") as fh:
        for name, doc in LAWS.items():
            with open(os.path.join(tmp, f"{name}.json"), "w", encoding="utf-8") as law:
                json.dump(doc, law)
        os.chdir(tmp)
        try:
            for argv in calls():
                fh.write(json.dumps(run(argv), sort_keys=True) + "\n")
                n += 1
        finally:
            os.chdir(cwd)
    return n


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/cli_grid.py OUT")
    print(f"{write_grid(sys.argv[1])} documents written to {sys.argv[1]}")
