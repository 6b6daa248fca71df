import json
import math

import numpy as np
import pytest

from tvrates import (
    BoundParams,
    PreconditionError,
    Scenario,
    SweepReport,
    emit_report,
    gaussian,
    run_sweep,
)
from tvrates.distributions import common_grid
from tvrates.harness import fit_rate, perturb_pair


def tiny_scenario(name="t", kind="translate", hs=(0.1, 0.01, 0.001)):
    return Scenario(
        name=name,
        base=gaussian(0.0, 1.0),
        perturbation=kind,
        h_grid=hs,
        params=BoundParams(p=2.0, q=2.0, epsilon=0.1),
        resolution=2048,
    )


class TestScenarioValidation:
    def test_scale_grid_must_be_positive(self):
        with pytest.raises(PreconditionError):
            tiny_scenario(hs=(0.1, 0.0))

    def test_scale_grid_must_descend(self):
        with pytest.raises(PreconditionError):
            tiny_scenario(hs=(0.01, 0.1))

    def test_unknown_perturbation(self):
        with pytest.raises(PreconditionError):
            tiny_scenario(kind="rotate")

    def test_name_must_be_path_safe(self):
        with pytest.raises(PreconditionError):
            tiny_scenario(name="../escape")
        with pytest.raises(PreconditionError):
            tiny_scenario(name="")

    def test_json_round_trip(self):
        sc = tiny_scenario()
        back = Scenario.from_json(json.dumps(sc.to_json()))
        assert back == sc


class TestPerturbations:
    def test_translate(self):
        a, b = perturb_pair(tiny_scenario(kind="translate"), 0.25)
        np.testing.assert_allclose(b.means[0, 0] - a.means[0, 0], 0.25)

    def test_scale(self):
        a, b = perturb_pair(tiny_scenario(kind="scale"), 0.25)
        np.testing.assert_allclose(b.covs[0, 0, 0], 1.25**2)

    def test_mixture_weight_total_mass(self):
        a, b = perturb_pair(tiny_scenario(kind="mixture-weight"), 0.1)
        np.testing.assert_allclose(b.weights.sum(), 1.0)
        assert b.n_components == a.n_components + 1

    def test_smoothed_sequence_smooths_both_sides(self):
        sc = tiny_scenario(kind="smoothed-sequence")
        a, b = perturb_pair(sc, 0.1)
        # certificates only ever see the smoothed laws: every component of
        # both sides carries the smoothing variance on top of the base one
        assert np.all(a.covs[:, 0, 0] >= 1.0 + sc.smoothing_sigma**2 - 1e-12)
        assert np.all(b.covs[:, 0, 0] >= 1.0 + sc.smoothing_sigma**2 - 1e-12)


class TestFitRate:
    def test_exact_power_law(self):
        rows = [{"A": x, "rho_p": x**0.9} for x in (0.5, 0.1, 0.02, 0.004)]
        slope, stderr = fit_rate(rows)
        np.testing.assert_allclose(slope, 0.9, atol=1e-12)
        assert stderr < 1e-12

    def test_linear_data_recovers_slope_and_intercept(self):
        xs = (0.9, 0.5, 0.1, 0.05)
        rows = [{"A": x, "rho_p": 3.0 * x} for x in xs]
        slope, stderr = fit_rate(rows)
        np.testing.assert_allclose(slope, 1.0, atol=1e-12)
        # recover the intercept from the fitted slope: mean(ln y - ln x)
        intercept = np.mean([math.log(3.0 * x) - slope * math.log(x) for x in xs])
        np.testing.assert_allclose(intercept, math.log(3.0), atol=1e-12)

    def test_rows_above_one_excluded(self):
        rows = [{"A": x, "rho_p": x} for x in (0.5, 0.1, 0.02)]
        rows.append({"A": 7.0, "rho_p": 1e9})  # would wreck the fit if used
        slope, _ = fit_rate(rows)
        np.testing.assert_allclose(slope, 1.0, atol=1e-12)

    def test_needs_three_rows(self):
        with pytest.raises(PreconditionError):
            fit_rate([{"A": 0.1, "rho_p": 0.1}, {"A": 0.01, "rho_p": 0.01}])


@pytest.fixture(scope="module")
def translate_report():
    return run_sweep(tiny_scenario(hs=(0.1, 0.03, 0.01, 0.003)))


class TestRunSweep:

    def test_slope_near_one(self, translate_report):
        assert 0.95 <= translate_report.slope <= 1.05

    def test_one_row_per_scale(self, translate_report):
        assert len(translate_report.rows) == 4
        assert [r["h"] for r in translate_report.rows] == [0.1, 0.03, 0.01, 0.003]

    def test_row_level_soundness(self, translate_report):
        for r in translate_report.rows:
            if r["A"] <= 1.0:
                assert r["rho_p"] >= r["tv"] - 1e-12
                assert r["rhs1"] >= r["rho_p"]

    def test_all_certificates_satisfied(self, translate_report):
        assert all(r["ok1"] and r["ok2"] and r["okp"] for r in translate_report.rows)

    def test_metadata_recorded(self, translate_report):
        assert set(translate_report.metadata) == {
            "seed", "resolution", "box_sigmas", "version",
        }

    def test_version_is_package_version(self, translate_report):
        import tvrates

        assert translate_report.metadata["version"] == tvrates.__version__

    def test_sweep_computes_each_law_quantity_once(self, monkeypatch):
        import tvrates.harness as hmod
        from tvrates import GaussianMixture, bounds, distributions, spectral, transport

        counted = {
            spectral.char_fn_grid: "char_fn_grid",
            spectral.poly_envelope: "poly_envelope",
            spectral._poly_entries: "envelope_entries",
            spectral.exp_envelope: "exp_envelope",
            spectral._exp_entry: "exp_entry",
            spectral._derivative_stack: "derivative_stack",
            distributions.discretize: "discretize",
        }
        calls = []  # (name, law or None, detail) per call

        def law_key(law):
            return tuple(v.tobytes() for v in (law.weights, law.means, law.covs))

        def counting(fn, name):
            def wrapper(*args, **kwargs):
                if name == "discretize":
                    law, grid = args
                    calls.append((name, law_key(law), grid.n))
                else:
                    calls.append((name, None, None))
                return fn(*args, **kwargs)

            return wrapper

        # every binding site, including the ``from ... import`` copies
        for mod in (bounds, distributions, hmod, spectral, transport):
            for attr, val in list(vars(mod).items()):
                if callable(val) and val in counted:
                    monkeypatch.setattr(mod, attr, counting(val, counted[val]))
        bisect = distributions._bisect

        def counting_bisect(items):
            solved = tuple((law_key(law), len(u)) for law, u in items)
            calls.append(("bisect", None, solved))
            return bisect(items)

        monkeypatch.setattr(distributions, "_bisect", counting_bisect)

        def forbidden(law, u):
            raise AssertionError("a sweep solves its quantiles in one batch")

        monkeypatch.setattr(GaussianMixture, "quantile", forbidden)

        # translate pairs share one component count, mixture-weight ones two
        for kind in ("translate", "mixture-weight"):
            sc = tiny_scenario(kind=kind)
            n = len(sc.h_grid)
            per_sweep = []
            for _ in range(2):
                calls.clear()
                rep = run_sweep(sc)
                assert all(r["ok1"] and r["ok2"] and r["okp"] for r in rep.rows)
                per_sweep.append(sorted(calls))
            # no evaluation outlives its sweep: the second sweep repeats the work
            assert per_sweep[0] == per_sweep[1]
            names = [name for name, _, _ in per_sweep[0]]
            # both envelopes of a law read the one derivative stack its
            # evaluation keeps
            for name in ("char_fn_grid", "derivative_stack"):
                assert names.count(name) == n + 1
            # the certificates read two entries of each law per envelope,
            # at orders p_even and 0, and build no table
            assert names.count("envelope_entries") == 2 * (n + 1)
            assert names.count("exp_entry") == 2 * (n + 1)
            assert "poly_envelope" not in names and "exp_envelope" not in names
            ref = law_key(sc.base)
            laws = {ref} | {law_key(perturb_pair(sc, h)[1]) for h in sc.h_grid}
            assert len(laws) == n + 1
            # one bisection, whatever the component counts, solves the gap's
            # rule order (256 nodes, the only one the gap reads) of all N + 1
            # laws, each law once
            batches = [items for name, _, items in per_sweep[0] if name == "bisect"]
            counts = {law.n_components for h in sc.h_grid for law in perturb_pair(sc, h)}
            assert len(counts) == (1 if kind == "translate" else 2)
            assert len(batches) == 1
            solved = [law for law, _ in batches[0]]
            assert sorted(solved) == sorted(laws)
            assert all(n_levels == 256 for items in batches for _, n_levels in items)
            discretized = [
                (law, d) for name, law, d in per_sweep[0] if name == "discretize"
            ]
            assert len(discretized) == len(set(discretized))
            assert sum(law == ref for law, _ in discretized) >= 2  # level 0 and 1

    def test_default_sweep_branch_census(self, monkeypatch):
        # which inequality each default row certifies, per certificate
        import tvrates.harness as hmod
        from tvrates import default_scenarios

        branches = []  # (regime, branch) per certificate, in build order
        for name in ("polynomial_rate_certificate", "exponential_rate_certificate",
                     "pointwise_certificate"):
            def recording(pair, *args, _build=getattr(hmod, name), **kwargs):
                cert = _build(pair, *args, **kwargs)
                branches.append((cert.regime, cert.ledger.extra["branch"]))
                return cert

            monkeypatch.setattr(hmod, name, recording)
        census = {}
        for sc in default_scenarios():
            branches.clear()
            assert len(run_sweep(sc).rows) == len(sc.h_grid) == 5
            for key in branches:
                census[key] = census.get(key, 0) + 1
            # criterion 9 reads the three smallest scales: all polylog
            lemma2 = [branch for regime, branch in branches if regime == "lemma2-exp"]
            assert lemma2[-3:] == ["polylog"] * 3
        assert census == {
            ("lemma1-poly", "rate"): 18, ("lemma1-poly", "constant"): 2,
            ("lemma2-exp", "polylog"): 12, ("lemma2-exp", "constant"): 8,
            ("pointwise", "rate"): 18, ("pointwise", "constant"): 2,
        }

    def test_sweep_computes_grid_geometry_once_per_grid(self, monkeypatch):
        from tvrates.distributions import SpaceGrid

        computed = []  # (key, grid, value) per computation
        keep = SpaceGrid._keep

        def counting_keep(grid, key, compute):
            def counted():
                value = compute()
                computed.append((key, grid, value))
                return value

            return keep(grid, key, counted)

        monkeypatch.setattr(SpaceGrid, "_keep", counting_keep)
        sc = tiny_scenario()
        per_sweep = []
        for _ in range(2):
            computed.clear()
            run_sweep(sc)
            per_sweep.append(list(computed))
        first, second = per_sweep
        keys = [(key, grid) for key, grid, _ in first]
        # every derived array or grid is computed once per grid value
        assert len(keys) == len(set(keys))
        base = common_grid(*perturb_pair(sc, sc.h_grid[0]), sc.box_sigmas, sc.resolution)
        for key in ("nodes", "radii", "freqs", "freq_radii",
                    ("phases", 1.0), ("phases", -1.0), ("refined", 2)):
            assert (key, base) in keys
        assert ("nodes", base.refined()) in keys and ("radii", base.refined()) in keys
        for _, _, value in first:
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable
        # nothing is kept past a sweep: the second one computes it all again
        assert [(key, grid) for key, grid, _ in second] == keys
        assert all(a is not b for (_, _, a), (_, _, b) in zip(first, second))

    def test_smoothed_sequence_rate_beats_certified_exponent(self):
        # contaminated sequence at rates h_n, compared after smoothing:
        # the measured rate should dominate 1 - epsilon
        rep = run_sweep(tiny_scenario(kind="smoothed-sequence",
                                      hs=(0.1, 0.03, 0.01, 0.003, 0.001)))
        assert rep.slope >= 0.9

    def test_minority_row_failures_recorded(self, monkeypatch):
        import tvrates.harness as hmod
        real = hmod._sweep_row

        def flaky(sc, h, grid):
            if h == 0.03:
                raise PreconditionError("forced row failure")
            return real(sc, h, grid)

        monkeypatch.setattr(hmod, "_sweep_row", flaky)
        rep = run_sweep(tiny_scenario(hs=(0.1, 0.03, 0.01, 0.003, 0.001)))
        assert len(rep.rows) == 4
        assert rep.failures == ((0.03, "forced row failure"),)

    def test_majority_row_failures_abort(self, monkeypatch):
        # rows that all broke a precondition abort with a PreconditionError
        # naming the shared message once
        import tvrates.harness as hmod

        def always_fail(sc, h, grid):
            raise PreconditionError("forced row failure")

        monkeypatch.setattr(hmod, "_sweep_row", always_fail)
        with pytest.raises(PreconditionError) as exc:
            run_sweep(tiny_scenario())
        assert str(exc.value).count("forced row failure") == 1

    def test_majority_row_failures_of_mixed_kinds_are_numerical(self, monkeypatch):
        import tvrates.harness as hmod
        from tvrates import NumericalError

        def fail(sc, h, grid):
            if h == sc.h_grid[0]:
                raise NumericalError("forced numerical failure")
            raise PreconditionError("forced row failure")

        monkeypatch.setattr(hmod, "_sweep_row", fail)
        with pytest.raises(NumericalError) as exc:
            run_sweep(tiny_scenario())
        msg = str(exc.value)
        assert msg.count("forced numerical failure") == 1
        assert msg.count("forced row failure") == 1

    def test_row_whose_pair_construction_raises_is_a_failure(self, monkeypatch):
        # a scale whose perturbed law cannot be built fails its row alone
        import tvrates.harness as hmod
        real = hmod.perturb_pair

        def perturb(sc, h):
            if h == 0.03:
                raise PreconditionError("forced pair failure")
            return real(sc, h)

        monkeypatch.setattr(hmod, "perturb_pair", perturb)
        rep = run_sweep(tiny_scenario(hs=(0.1, 0.03, 0.01, 0.003, 0.001)))
        assert [r["h"] for r in rep.rows] == [0.1, 0.01, 0.003, 0.001]
        assert rep.failures == ((0.03, "forced pair failure"),)

    def test_entropic_check_adds_json_only_column(self):
        # larger gaps keep the entropic gap certification cheap here
        sc = Scenario(
            name="with-check",
            base=gaussian(0.0, 1.0),
            perturbation="translate",
            h_grid=(0.8, 0.4, 0.2),
            params=BoundParams(p=2.0, q=2.0, epsilon=0.1),
            resolution=2048,
            entropic_check=True,
        )
        rep = run_sweep(sc)
        assert all("wq_entropic" in r for r in rep.rows)
        # sampled atoms approximate the laws, so the cross-check lands near A
        for r in rep.rows:
            assert abs(r["wq_entropic"] - r["A"]) < 0.25
        # the CSV column order stays pinned regardless
        from tvrates.harness import _csv_text

        header = _csv_text(rep).splitlines()[0]
        assert header == "h,A,rho_p,tv,rhs1,rhs2,psup,prhs,ok1,ok2,okp"


class TestEmitReport:
    def test_empty_rows_give_header_only_csv(self, tmp_path):
        rep = SweepReport(
            scenario={"name": "empty"}, rows=(), slope=0.0, stderr=0.0
        )
        (path,) = emit_report(rep, tmp_path, ("csv",))
        lines = open(path).read().splitlines()
        assert lines == ["h,A,rho_p,tv,rhs1,rhs2,psup,prhs,ok1,ok2,okp"]

    def test_csv_line_count_and_json_round_trip(self, tmp_path):
        rep = run_sweep(tiny_scenario(hs=(0.1, 0.03, 0.01, 0.003, 0.001)))
        csv_path, json_path = emit_report(rep, tmp_path, ("csv", "json"))
        assert len(open(csv_path).read().splitlines()) == 6
        with open(json_path, encoding="utf-8") as fh:
            assert json.load(fh) == json.loads(json.dumps(rep.to_json()))

    def test_svg_has_three_polylines(self, tmp_path):
        rep = run_sweep(tiny_scenario(hs=(0.1, 0.01, 0.001)))
        (path,) = emit_report(rep, tmp_path, ("svg",))
        text = open(path).read()
        assert text.count("<polyline") == 3

    def test_unknown_format_rejected(self, tmp_path):
        rep = SweepReport(scenario={"name": "x"}, rows=(), slope=0.0, stderr=0.0)
        with pytest.raises(PreconditionError):
            emit_report(rep, tmp_path, ("pdf",))

    def test_unknown_format_writes_no_file(self, tmp_path):
        # every format is checked before the first file is written
        rep = SweepReport(scenario={"name": "x"}, rows=(), slope=0.0, stderr=0.0)
        out = tmp_path / "out"
        with pytest.raises(PreconditionError, match="'pdf'"):
            emit_report(rep, out, ("csv", "json", "pdf"))
        assert not out.exists()

    def test_reproducible_bytes(self, tmp_path):
        sc = tiny_scenario(hs=(0.1, 0.01, 0.001))
        p1 = emit_report(run_sweep(sc), tmp_path / "one", ("csv", "json", "svg"))
        p2 = emit_report(run_sweep(sc), tmp_path / "two", ("csv", "json", "svg"))
        for a, b in zip(p1, p2):
            assert open(a, "rb").read() == open(b, "rb").read()


def test_benchmark_tracer_binds_every_traced_function(monkeypatch):
    # the benchmark's traced runs wrap these functions by name; building the
    # tracer looks each one up, so deleting or renaming one fails here
    import importlib
    from pathlib import Path

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    traced = tracer.Tracer()
    assert len(traced.names) == sum(len(specs) for specs in tracer.LAYERS.values())
    assert all(sites for _, _, sites in traced.targets)


def test_benchmark_certify_oracle_accepts_first_op_of_each_regime(monkeypatch, tmp_path):
    # the benchmark's oracles read the mixture representation; a change that
    # breaks them fails here rather than in a benchmark run
    import importlib
    from pathlib import Path

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    ops = workloads.build("certify", 0, str(tmp_path)).ops
    for regime in workloads.REGIMES:
        op = next(op for op in ops if op.inputs["regime"] == regime)
        op.check(op.run())


class TestBenchmarkTracer:
    def test_every_traced_name_still_resolves(self):
        # the benchmark's tracer binds each LAYERS name by attribute; a
        # renamed or removed binding would otherwise surface only when a
        # traced benchmark run crashes
        import importlib.util
        import os

        path = os.path.join(
            os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py"
        )
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        targets = tracer._targets()
        want = [
            f"{layer}.{name.rsplit('.', 1)[-1]}"
            for layer, names in tracer.LAYERS.items()
            for name in names
        ]
        assert [name for name, _, _ in targets] == want
        for name, original, sites in targets:
            assert callable(original) and sites, name
            for label, owner, attr in sites:
                assert getattr(owner, attr) is original, label
