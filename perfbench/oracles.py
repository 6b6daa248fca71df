"""Independent correctness checks for the benchmark workloads.

Each check raises :class:`Mismatch` naming the failure kind and the tvrates
module whose output was wrong.  The references never come from the code
path under test:

* sweep reports are compared with the digests of the golden reports in
  ``golden.json`` (CSV and SVG byte for byte, JSON with ``metadata.version``
  set aside, because that field depends on whether the package is
  installed; its value is recorded).  The digests were made by
  :func:`golden_digests` from the reports of ``demos/05_rate_sweep.py`` and
  are committed, so the code under test never produces its own reference.
* certificate left sides are compared with a dense midpoint quadrature of
  ``(1 + |x|^p) |f_a - f_b|`` (or its maximum, for the pointwise regime)
  built from ``GaussianMixture.pdf``.
* exact transport costs are compared with ``scipy.optimize.linear_sum_assignment``
  (uniform masses on equal-size clouds make the LP an assignment problem).
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
from scipy.optimize import linear_sum_assignment

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIGESTS = os.path.join(HERE, "golden.json")
REPORT_FORMATS = ("csv", "json", "svg")

# |lhs - reference| allowed for rho_p left sides: the quadrature's own
# refinement tolerance (tvrates.transport.rho_p, tol=1e-4) plus a relative
# term for the reference's discretization.
RHO_ABS_TOL = 1e-4
RHO_REL_TOL = 1e-6
# Pointwise left sides are maxima over the program's 4096-node grid; the
# dense reference samples 16x finer, so the two maxima differ at second
# order in the program's spacing.
SUP_REL_TOL = 1e-3
# W_q of a translate pair equals the shift; the quantile quadrature's error
# estimate is far below this.
GAP_REL_TOL = 1e-6
# Exact OT against the assignment solver, and the entropic solver's floor.
EXACT_ABS_TOL = 1e-9
ENTROPIC_FLOOR = 1e-10


class Mismatch(Exception):
    """An op returned, but its output is wrong."""

    def __init__(self, kind: str, module: str, detail: str):
        super().__init__(detail)
        self.kind = kind
        self.module = module


# ---------------------------------------------------------------------------
# sweep reports
# ---------------------------------------------------------------------------

def _canonical(fmt: str, data: bytes) -> tuple[bytes, str | None]:
    """Bytes to compare and, for JSON, the version field set aside."""
    if fmt != "json":
        return data, None
    doc = json.loads(data)
    version = doc.get("metadata", {}).pop("version", None)
    return json.dumps(doc, sort_keys=True).encode(), version


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_digests(report_dir: str) -> dict:
    """``{file name: sha256 of its canonical bytes}`` for every report; the
    tool that regenerates ``golden.json`` when the reports change on purpose
    (``python3 perfbench/oracles.py demos/reports > perfbench/golden.json``)."""
    out = {}
    for name in sorted(os.listdir(report_dir)):
        fmt = name.rsplit(".", 1)[-1]
        if fmt in REPORT_FORMATS:
            with open(os.path.join(report_dir, name), "rb") as fh:
                out[name] = _digest(_canonical(fmt, fh.read())[0])
    return out


class GoldenReports:
    """Reference digests of the sweep reports, from ``golden.json``."""

    def __init__(self):
        with open(GOLDEN_DIGESTS, encoding="utf-8") as fh:
            self.digests = json.load(fh)
        self.versions = set()

    @staticmethod
    def check_rows(name: str, rows) -> None:
        bad = [r["h"] for r in rows if not (r["ok1"] and r["ok2"] and r["okp"])]
        if bad:
            raise Mismatch("violated-certificate", "bounds",
                           f"{name}: certificates violated at h = {bad}")

    def check_files(self, name: str, paths) -> None:
        names = sorted(os.path.basename(path) for path in paths)
        if names != sorted(f"{name}.{fmt}" for fmt in REPORT_FORMATS):
            raise Mismatch("oracle-mismatch", "harness",
                           f"{name}: wrote {names}, not one report per format")
        for path in paths:
            fname = os.path.basename(path)
            with open(path, "rb") as fh:
                data, version = _canonical(fname.rsplit(".", 1)[-1], fh.read())
            if version is not None:
                self.versions.add(version)
            if _digest(data) != self.digests.get(fname):
                raise Mismatch("oracle-mismatch", "harness",
                               f"{fname} differs from the golden report")
            os.remove(path)  # the next op must write its own


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def _dense_weighted_diff(a, b, p: float, n: int = 1 << 16):
    """Midpoints, spacing and (1 + |x|^p)|f_a - f_b| on a box of 14 standard
    deviations around every component of either law."""
    means = np.concatenate([a.means[:, 0], b.means[:, 0]])
    sds = np.sqrt(np.concatenate([a.covs[:, 0, 0], b.covs[:, 0, 0]]))
    lo, hi = float(np.min(means - 14 * sds)), float(np.max(means + 14 * sds))
    dx = (hi - lo) / n
    x = lo + (np.arange(n) + 0.5) * dx
    return dx, (1.0 + np.abs(x) ** p) * np.abs(a.pdf(x) - b.pdf(x))


def check_certificate(doc: dict, a, b, family: str, h: float) -> None:
    """Check one ``tvrates certify`` JSON document for the pair (a, b)."""
    if not doc["satisfied"]:
        raise Mismatch("violated-certificate", "bounds",
                       f"lhs {doc['lhs']!r} > rhs {doc['rhs']!r}")
    if family == "translate" and abs(doc["A"] - h) > GAP_REL_TOL * h:
        raise Mismatch("oracle-mismatch", "transport",
                       f"W_q gap {doc['A']!r} of a translate pair != shift {h!r}")
    dx, wdiff = _dense_weighted_diff(a, b, doc["params"]["p"])
    if doc["regime"] == "pointwise":
        ref = float(wdiff.max())
        ok = abs(doc["lhs"] - ref) <= SUP_REL_TOL * ref
    else:
        ref = float(wdiff.sum() * dx)
        ok = abs(doc["lhs"] - ref) <= RHO_ABS_TOL + RHO_REL_TOL * ref
    if not ok:
        raise Mismatch("oracle-mismatch", "transport" if doc["regime"] != "pointwise"
                       else "bounds", f"lhs {doc['lhs']!r} != dense reference {ref!r}")


# ---------------------------------------------------------------------------
# discrete transport
# ---------------------------------------------------------------------------

def assignment_cost(x: np.ndarray, y: np.ndarray, q: float) -> float:
    """Optimal cost of uniform-mass clouds of equal size, by assignment."""
    cost = np.linalg.norm(x[:, None, :] - y[None, :, :], axis=-1) ** q
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum() / len(x))


def check_exact(value: float, q: float, ref_cost: float) -> None:
    if abs(value**q - ref_cost) > EXACT_ABS_TOL:
        raise Mismatch("oracle-mismatch", "transport",
                       f"ot_exact cost {value**q!r} != assignment {ref_cost!r}")


def check_entropic(value: float, q: float, ref_cost: float, rtol: float) -> None:
    cost = value**q
    if cost < ref_cost - ENTROPIC_FLOOR or cost - ref_cost > rtol * cost:
        raise Mismatch("oracle-mismatch", "transport",
                       f"ot_entropic cost {cost!r} vs exact {ref_cost!r} (rtol {rtol})")


if __name__ == "__main__":
    import sys

    print(json.dumps(golden_digests(sys.argv[1]), indent=1, sort_keys=True))
