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
from tvrates.harness import fit_rate, perturb_pair


def tiny_scenario(name="t", kind="translate", hs=(0.1, 0.01, 0.001)):
    return Scenario(
        name=name,
        base=gaussian(0.0, 1.0),
        perturbation=kind,
        h_grid=hs,
        params=BoundParams(p=2.0, q=2.0, epsilon=0.1, d=1),
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
            spectral.exp_envelope: "exp_envelope",
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
                    calls.append((name, law_key(law), grid.shape))
                else:
                    calls.append((name, None, None))
                return fn(*args, **kwargs)

            return wrapper

        # every binding site, including the ``from ... import`` copies
        for mod in (bounds, distributions, hmod, spectral, transport):
            for attr, val in list(vars(mod).items()):
                if callable(val) and val in counted:
                    monkeypatch.setattr(mod, attr, counting(val, counted[val]))
        quantile = GaussianMixture.quantile

        def counting_quantile(law, u):
            items = u if isinstance(u, tuple) else (u,)
            calls.append(("quantile", law_key(law), tuple(len(v) for v in items)))
            return quantile(law, u)

        monkeypatch.setattr(GaussianMixture, "quantile", counting_quantile)

        sc = tiny_scenario()
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
        # both envelopes of a law read the one derivative stack its char grid keeps
        for name in ("char_fn_grid", "derivative_stack", "poly_envelope", "exp_envelope"):
            assert names.count(name) == n + 1
        ref = law_key(sc.base)
        # one bisection per law solves both rule orders of the gap
        quantiled = [(law, d) for name, law, d in per_sweep[0] if name == "quantile"]
        assert len(quantiled) == len({law for law, _ in quantiled}) == n + 1
        assert all(d == (128, 256) for _, d in quantiled)
        assert ref in {law for law, _ in quantiled}
        discretized = [(law, d) for name, law, d in per_sweep[0] if name == "discretize"]
        assert len(discretized) == len(set(discretized))
        assert sum(law == ref for law, _ in discretized) >= 2  # level 0 and 1

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
        import tvrates.harness as hmod
        from tvrates import NumericalError

        def always_fail(sc, h, grid):
            raise PreconditionError("forced row failure")

        monkeypatch.setattr(hmod, "_sweep_row", always_fail)
        with pytest.raises(NumericalError):
            run_sweep(tiny_scenario())

    def test_entropic_check_adds_json_only_column(self):
        # larger gaps keep the entropic gap certification cheap here
        sc = Scenario(
            name="with-check",
            base=gaussian(0.0, 1.0),
            perturbation="translate",
            h_grid=(0.8, 0.4, 0.2),
            params=BoundParams(p=2.0, q=2.0, epsilon=0.1, d=1),
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
        back = SweepReport.from_json(open(json_path).read())
        assert back.to_json() == rep.to_json()

    def test_svg_has_three_polylines(self, tmp_path):
        rep = run_sweep(tiny_scenario(hs=(0.1, 0.01, 0.001)))
        (path,) = emit_report(rep, tmp_path, ("svg",))
        text = open(path).read()
        assert text.count("<polyline") == 3

    def test_unknown_format_rejected(self, tmp_path):
        rep = SweepReport(scenario={"name": "x"}, rows=(), slope=0.0, stderr=0.0)
        with pytest.raises(PreconditionError):
            emit_report(rep, tmp_path, ("pdf",))

    def test_reproducible_bytes(self, tmp_path):
        sc = tiny_scenario(hs=(0.1, 0.01, 0.001))
        p1 = emit_report(run_sweep(sc), tmp_path / "one", ("csv", "json", "svg"))
        p2 = emit_report(run_sweep(sc), tmp_path / "two", ("csv", "json", "svg"))
        for a, b in zip(p1, p2):
            assert open(a, "rb").read() == open(b, "rb").read()
