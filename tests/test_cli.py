import json
import math

import numpy as np
import pytest

from tvrates import SweepReport, gaussian
from tvrates.cli import main


@pytest.fixture
def mixture_files(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(gaussian(0.0, 1.0).to_json()))
    b.write_text(json.dumps(gaussian(1.0, 1.0).to_json()))
    return str(a), str(b)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestDist:
    def test_wq(self, mixture_files, capsys):
        a, b = mixture_files
        code, out = run_cli(capsys, "dist", "--a", a, "--b", b,
                            "--metric", "wq", "--q", "2")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"value", "method", "err"}
        np.testing.assert_allclose(doc["value"], 1.0, atol=1e-6)
        assert doc["method"] == "quantile-quadrature"

    def test_tv(self, mixture_files, capsys):
        a, b = mixture_files
        code, out = run_cli(capsys, "dist", "--a", a, "--b", b, "--metric", "tv")
        assert code == 0
        np.testing.assert_allclose(json.loads(out)["value"], 0.7658486, atol=1e-4)

    def test_rho_p(self, mixture_files, capsys):
        a, b = mixture_files
        code, out = run_cli(capsys, "dist", "--a", a, "--b", b,
                            "--metric", "rho_p", "--p", "2")
        assert code == 0
        assert json.loads(out)["value"] > 0.7658

    def test_precondition_exit_code(self, mixture_files, capsys):
        a, b = mixture_files
        code, _ = run_cli(capsys, "dist", "--a", a, "--b", b,
                          "--metric", "wq", "--q", "1")
        assert code == 2

    def test_missing_file_exit_code(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        code, _ = run_cli(capsys, "dist", "--a", missing, "--b", missing,
                          "--metric", "tv")
        assert code == 2


class TestEnvelope:
    @pytest.mark.parametrize("side", ["density", "frequency"])
    def test_table_schema(self, mixture_files, capsys, side):
        a, _ = mixture_files
        code, out = run_cli(capsys, "envelope", "--input", a, "--side", side,
                            "--K", "2", "--L", "3", "--resolution", "1024")
        assert code == 0
        doc = json.loads(out)
        assert doc["side"] == side
        assert len(doc["entries"]) == 3 * 4
        assert all(set(e) == {"k", "l", "c"} for e in doc["entries"])


class TestCertify:
    @pytest.mark.parametrize("regime,tag", [
        ("lemma1", "lemma1-poly"),
        ("lemma2", "lemma2-exp"),
        ("pointwise", "pointwise"),
    ])
    def test_regimes(self, mixture_files, capsys, tmp_path, regime, tag):
        a, _ = mixture_files
        b = tmp_path / "near.json"
        b.write_text(json.dumps(gaussian(0.01, 1.0).to_json()))
        code, out = run_cli(capsys, "certify", "--a", a, "--b", str(b),
                            "--p", "2", "--q", "2", "--eps", "0.1",
                            "--regime", regime)
        assert code == 0
        doc = json.loads(out)
        assert doc["regime"] == tag
        assert doc["satisfied"] is True
        assert doc["provenance"] == "empirical"

    def test_pointwise_alpha(self, mixture_files, capsys, tmp_path):
        a, _ = mixture_files
        b = tmp_path / "near.json"
        b.write_text(json.dumps(gaussian(0.05, 1.0).to_json()))
        code, out = run_cli(capsys, "certify", "--a", a, "--b", str(b),
                            "--regime", "pointwise", "--alpha", "1")
        assert code == 0
        assert json.loads(out)["satisfied"] is True


class TestSweep:
    def scenario_doc(self):
        return {
            "name": "cli-translate",
            "base": gaussian(0.0, 1.0).to_json(),
            "perturbation": "translate",
            "h_grid": [0.1, 0.01, 0.001],
            "p": 2.0,
            "q": 2.0,
            "epsilon": 0.1,
            "resolution": 2048,
        }

    def test_writes_reports(self, tmp_path, capsys):
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps(self.scenario_doc()))
        out_dir = tmp_path / "out"
        code, out = run_cli(capsys, "sweep", "--scenario", str(sc),
                            "--out", str(out_dir), "--formats", "csv,json,svg")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["written"]) == 3
        assert (out_dir / "cli-translate.csv").exists()
        assert 0.9 < doc["slope"] < 1.1

    def test_violated_certificate_exit_code(self, tmp_path, capsys, monkeypatch):
        # the pipeline's certificates hold on the analytic family, so force a
        # violated row to check the exit-code contract
        bad_row = {"h": 0.1, "A": 0.1, "rho_p": 1.0, "tv": 0.5, "rhs1": 0.1,
                   "rhs2": 0.1, "psup": 1.0, "prhs": 0.1, "ok1": False,
                   "ok2": True, "okp": True}
        fake = SweepReport(scenario={"name": "forced"}, rows=(bad_row,),
                           slope=1.0, stderr=0.0)
        monkeypatch.setattr("tvrates.cli.run_sweep", lambda sc: fake)
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps(self.scenario_doc()))
        code, _ = run_cli(capsys, "sweep", "--scenario", str(sc),
                          "--out", str(tmp_path / "o"))
        assert code == 4

    def test_bad_scenario_exit_code(self, tmp_path, capsys):
        sc = tmp_path / "sc.json"
        doc = self.scenario_doc()
        doc["h_grid"] = [0.001, 0.1]  # not descending
        sc.write_text(json.dumps(doc))
        code, _ = run_cli(capsys, "sweep", "--scenario", str(sc),
                          "--out", str(tmp_path / "o"))
        assert code == 2

    @pytest.mark.parametrize(
        "field, value",
        [
            ("r_exp", -1.0),
            ("r_exp", math.nan),
            ("r_exp", math.inf),
            ("box_sigmas", -3.0),
            ("box_sigmas", math.nan),
            ("smoothing_sigma", -1.0),
            ("smoothing_sigma", 0.0),
            ("resolution", 3),
            ("resolution", 2048.5),
            ("resolution", "x"),
            ("h_grid", ["x"]),
            ("h_grid", [0.1, math.nan]),
        ],
    )
    def test_bad_field_is_one_line_precondition(self, tmp_path, capsys, field, value):
        doc = self.scenario_doc()
        doc[field] = value
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps(doc))
        code = main(["sweep", "--scenario", str(sc), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("precondition violation:")
        assert field in err
        assert not (tmp_path / "o").exists()

    def test_numerical_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        from tvrates.errors import NumericalError

        def boom(sc):
            raise NumericalError("forced")

        monkeypatch.setattr("tvrates.cli.run_sweep", boom)
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps(self.scenario_doc()))
        code, _ = run_cli(capsys, "sweep", "--scenario", str(sc),
                          "--out", str(tmp_path / "o"))
        assert code == 3
