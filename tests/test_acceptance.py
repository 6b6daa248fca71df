"""Acceptance suite: one test per gate criterion, each printing a PASS/FAIL
line with the measured quantity next to its tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.stats import norm

from reference import brute_force_ot_uniform
from tvrates import (
    AtomSet,
    char_fn_grid,
    common_grid,
    default_scenarios,
    discretize,
    emit_report,
    gaussian,
    GaussianMixture,
    ot_entropic,
    ot_exact,
    poly_envelope,
    run_sweep,
    choose_l,
    tv_mass,
    wasserstein_1d,
    weighted_diff_reconstruct,
)
from tvrates.bounds import theta_exponent


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def sweep_reports():
    """Criteria 8-10 share the four standard sweeps."""
    t0 = time.time()
    reports = {sc.name: run_sweep(sc) for sc in default_scenarios()}
    reports["_elapsed"] = time.time() - t0
    return reports


def test_criterion_01_closed_form_wasserstein():
    base = gaussian(0.0, 1.0)
    t0 = time.time()
    errs = {
        h: abs(wasserstein_1d(base, gaussian(h, 1.0), 2).value - h)
        for h in (0.5, 0.1, 0.01)
    }
    elapsed = time.time() - t0
    worst = max(errs.values())
    report(
        1,
        worst <= 1e-6 and elapsed < 1.0,
        f"W_2 translate errors {worst:.2e} (tol 1e-6), runtime {elapsed:.2f}s (< 1s)",
    )


def test_criterion_02_closed_form_tv():
    expected = 2.0 * (2.0 * norm.cdf(0.5) - 1.0)
    got = tv_mass(gaussian(0.0, 1.0), gaussian(1.0, 1.0)).value
    err = abs(got - expected)
    report(2, err <= 1e-4, f"tv = {got:.7f} vs 2(2 Phi(1/2) - 1): err {err:.2e} (tol 1e-4)")


def test_criterion_03_exact_ot_vs_brute_force():
    rng = np.random.default_rng(42)
    t0 = time.time()
    worst = 0.0
    for d, q in itertools.product((1, 2), (1.0, 2.0)):
        for _ in range(25):
            xa = rng.normal(size=(4, d))
            xb = rng.normal(size=(4, d)) + 0.5
            masses = np.full(4, 0.25)
            got, _ = ot_exact(AtomSet(xa, masses), AtomSet(xb, masses), q)
            oracle = brute_force_ot_uniform(xa, xb, q)
            worst = max(worst, abs(got.value - oracle))
    elapsed = time.time() - t0
    report(
        3,
        worst <= 1e-9 and elapsed < 10.0,
        f"100 4-atom pairs: worst |ot_exact - enumeration| {worst:.2e} (tol 1e-9), "
        f"runtime {elapsed:.1f}s (< 10s)",
    )


def test_criterion_04_entropic_accuracy():
    rng = np.random.default_rng(31)
    t0 = time.time()
    worst = 0.0
    for _ in range(20):
        xa = AtomSet(rng.normal(size=(64, 1)), np.full(64, 1 / 64))
        xb = AtomSet(rng.normal(size=(64, 1)) + 0.4, np.full(64, 1 / 64))
        exact, _ = ot_exact(xa, xb, 2)
        ent = ot_entropic(xa, xb, 2)
        worst = max(worst, (ent.value - exact.value) / exact.value)
        assert ent.value >= exact.value - 1e-10  # rounded plan upper-bounds
    elapsed = time.time() - t0
    report(
        4,
        worst <= 0.01 and elapsed < 30.0,
        f"20 64-atom pairs: worst relative gap {worst:.2e} (tol 1e-2), "
        f"runtime {elapsed:.1f}s (< 30s)",
    )


def test_criterion_05_fourier_reconstruction():
    a, b = gaussian(0.0, 1.0), gaussian(0.5, 1.0)
    t0 = time.time()
    grid, vals = weighted_diff_reconstruct(a, b, 2)
    x = grid.nodes()
    direct = (a.pdf(x) - b.pdf(x)) * x**2
    sup_err = float(np.abs(vals - direct).max())
    elapsed = time.time() - t0
    report(
        5,
        sup_err <= 1e-3 and grid.n == 4096 and elapsed < 2.0,
        f"reconstruction sup-error {sup_err:.2e} (tol 1e-3) on n=4096, "
        f"runtime {elapsed:.2f}s (< 2s)",
    )


def test_criterion_06_envelope_consistency():
    mixes = [
        gaussian(0.0, 1.0),
        GaussianMixture([0.5, 0.5], [[-1.0], [1.0]], [[[1.0]], [[1.0]]]),
        GaussianMixture([0.3, 0.7], [[-2.0], [0.5]], [[[0.25]], [[2.0]]]),
        GaussianMixture([0.2, 0.5, 0.3], [[-3.0], [0.0], [3.0]],
                        [[[0.5]], [[1.0]], [[0.8]]]),
        gaussian(1.0, 0.25),
    ]
    worst = 0.0
    for mix in mixes:
        grid = common_grid(mix, mix, 10.0, 4096)
        coarse = discretize(mix, grid)
        fine = discretize(mix, grid.refined())
        for obj_c, obj_f in (
            (coarse, fine),
            (char_fn_grid(coarse), char_fn_grid(fine)),
        ):
            tc = poly_envelope(obj_c, 4, 6)
            tf = poly_envelope(obj_f, 4, 6)
            assert np.all(np.isfinite(tc.table)) and np.all(tc.table > 0)
            worst = max(worst, float((np.abs(tf.table - tc.table) / tc.table).max()))
    report(
        6,
        worst < 0.05,
        f"5 mixtures, both sides, k<=4, l<=6: worst refinement change "
        f"{worst:.2e} (tol 5e-2)",
    )


def test_criterion_07_exponent_formulas():
    eps_grid = [round(0.05 * k, 2) for k in range(1, 20)]
    failures = [
        (eps, p, d)
        for eps in eps_grid
        for p in (2, 4, 6)
        for d in (1, 2, 3)
        if theta_exponent(choose_l(eps, p, d), p, d) < 1.0 - eps
    ]
    report(
        7,
        not failures,
        f"theta(choose_l) >= 1 - eps exactly on all {19 * 9} grid points"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_08_polynomial_certificate_soundness(sweep_reports):
    elapsed = sweep_reports["_elapsed"]
    bad = [
        (name, row["h"])
        for name, rep in sweep_reports.items()
        if name != "_elapsed"
        for row in rep.rows
        if not (row["ok1"] and row["okp"])
    ]
    report(
        8,
        not bad and elapsed < 120.0,
        f"4 sweeps x 5 scales: lemma1-poly and pointwise certificates all "
        f"satisfied, runtime {elapsed:.0f}s (< 120s)"
        + (f"; violations: {bad}" if bad else ""),
    )


def test_criterion_09_exponential_certificate_shape(sweep_reports):
    bad = [
        (name, row["h"])
        for name, rep in sweep_reports.items()
        if name != "_elapsed"
        for row in rep.rows
        if not row["ok2"]
    ]
    spreads = {}
    for name, rep in sweep_reports.items():
        if name == "_elapsed":
            continue
        small = sorted(rep.rows, key=lambda r: r["h"])[:3]
        assert small[-1]["A"] / small[0]["A"] > 50  # spans decades
        ratios = [r["rhs2"] / (r["A"] * abs(math.log(r["A"])) ** 3) for r in small]
        spreads[name] = (max(ratios) - min(ratios)) / min(ratios)
    worst = max(spreads.values())
    report(
        9,
        not bad and worst < 0.01,
        f"lemma2-exp certificates all satisfied; rhs/(A|ln A|^3) spread per "
        f"sweep {worst:.2e} worst (tol 1e-2)"
        + (f"; violations: {bad}" if bad else ""),
    )


def test_criterion_10_rate_recovery(sweep_reports):
    rep = sweep_reports["gaussian-translate"]
    ok = 0.95 <= rep.slope <= 1.05 and rep.slope >= 0.9
    report(
        10,
        ok,
        f"translate log-log slope {rep.slope:.4f} in [0.95, 1.05] and above "
        f"the certified exponent 1 - eps = 0.9",
    )


def test_default_reports_match_golden_files(sweep_reports, tmp_path):
    # the reports under demos/reports/ are the byte-identity contract of
    # every speed-up: all csv, json and svg files must regenerate exactly
    golden = os.path.join(os.path.dirname(__file__), os.pardir, "demos", "reports")
    written = []
    for name, rep in sweep_reports.items():
        if name != "_elapsed":
            written += emit_report(rep, tmp_path, ("csv", "json", "svg"))
    names = sorted(os.path.basename(path) for path in written)
    assert names == sorted(os.listdir(golden))
    for name in names:
        with open(os.path.join(golden, name), "rb") as want, open(tmp_path / name, "rb") as got:
            assert got.read() == want.read(), f"{name} differs from the golden report"


# numpy's AVX-512 kernel sets; disabling them gives the AVX2-level kernels
# another x86 CPU would run (ROADMAP item 23)
AVX2_LEVEL = "X86_V4 AVX512_ICL AVX512_SPR"


@pytest.fixture(scope="module")
def avx2_level_rows():
    """The default sweeps' rows, recomputed in a process whose numpy runs
    its AVX2-level kernels; skipped where numpy dispatches no AVX-512 ones."""
    from numpy._core._multiarray_umath import __cpu_features__

    if not __cpu_features__.get("X86_V4"):
        pytest.skip("numpy dispatches no X86_V4 kernels here")
    import tvrates

    code = ("import json; from tvrates import default_scenarios, run_sweep; "
            "print(json.dumps({sc.name: run_sweep(sc).rows "
            "for sc in default_scenarios()}))")
    src = os.path.dirname(os.path.dirname(tvrates.__file__))
    env = dict(os.environ, PYTHONPATH=src, NPY_DISABLE_CPU_FEATURES=AVX2_LEVEL)
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def worst_relative_change(sweep_reports, other_rows, columns):
    """The largest relative change of ``columns`` between the in-process
    rows and ``other_rows``, after checking that both hold the same rows
    with the same ok flags."""
    worst = 0.0
    for name, rows in other_rows.items():
        mine = sweep_reports[name].rows
        assert len(rows) == len(mine)
        for got, want in zip(rows, mine):
            assert [got[f] for f in ("ok1", "ok2", "okp")] == [
                want[f] for f in ("ok1", "ok2", "okp")
            ]
            for col in columns:
                worst = max(worst, abs(got[col] - want[col]) / abs(want[col]))
    return worst


def test_default_rows_hold_under_avx2_level_kernels(sweep_reports, avx2_level_rows):
    # the golden bytes hold only with the AVX-512 kernels; these columns
    # move at round-off (1.9e-13 at most when measured) under the others
    cols = ("A", "rho_p", "tv", "rhs1", "psup")
    worst = worst_relative_change(sweep_reports, avx2_level_rows, cols)
    assert worst <= 1e-12, worst


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: grid envelopes at the band edge turn kernel "
    "round-off into 1e-6 relative changes of rhs2 and 1e-5 of prhs",
)
def test_default_envelope_rows_hold_under_avx2_level_kernels(
    sweep_reports, avx2_level_rows
):
    worst = worst_relative_change(sweep_reports, avx2_level_rows, ("rhs2", "prhs"))
    assert worst <= 1e-9, worst


def test_criterion_11_metric_axioms():
    base = gaussian(0.0, 1.0)
    other = GaussianMixture([0.5, 0.5], [[-1.0], [1.0]], [[[1.0]], [[1.0]]])
    sym_w = abs(
        wasserstein_1d(base, other, 2).value - wasserstein_1d(other, base, 2).value
    )
    sym_r = abs(
        tv_mass(base, other).value - tv_mass(other, base).value
    )
    rng = np.random.default_rng(17)
    masses = np.full(16, 1 / 16)
    worst_slack = math.inf
    for _ in range(1000):
        a = AtomSet(rng.normal(size=(16, 1)), masses)
        b = AtomSet(rng.normal(size=(16, 1)) + 0.3, masses)
        c = AtomSet(rng.normal(size=(16, 1)) * 1.3, masses)
        wab = ot_exact(a, b, 2)[0].value
        wbc = ot_exact(b, c, 2)[0].value
        wac = ot_exact(a, c, 2)[0].value
        worst_slack = min(worst_slack, wab + wbc - wac)
    report(
        11,
        sym_w <= 1e-10 and sym_r <= 1e-10 and worst_slack >= -1e-9,
        f"symmetry gaps {max(sym_w, sym_r):.2e} (tol 1e-10); triangle slack "
        f">= {worst_slack:.2e} over 1000 trials (tol -1e-9)",
    )


def test_criterion_12_reproducibility(tmp_path):
    sc = default_scenarios()[0]
    paths_a = emit_report(run_sweep(sc), tmp_path / "a", ("csv", "json"))
    paths_b = emit_report(run_sweep(sc), tmp_path / "b", ("csv", "json"))
    identical = all(
        open(pa, "rb").read() == open(pb, "rb").read()
        for pa, pb in zip(paths_a, paths_b)
    )
    report(12, identical, "two identical sweep runs emit byte-identical CSV and JSON")
