import contextlib
import io
import json
import math
import os
import signal
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvrates import GaussianMixture, Scenario, SweepReport, default_scenarios, gaussian
from tvrates.cli import main


@pytest.fixture
def mixture_files(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(gaussian(0.0, 1.0).to_json()))
    b.write_text(json.dumps(gaussian(1.0, 1.0).to_json()))
    return str(a), str(b)


# A two-dimensional mixture document: mixtures are one-dimensional.
PLANAR_DOC = {
    "d": 2,
    "components": [{"w": 1.0, "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}],
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class Deadline(Exception):
    """Raised by the alarm; ``main`` catches no such exception."""


def assert_overflow_within_deadline(capsys, argv, seconds=10.0):
    """``main(argv)`` returns within ``seconds`` with exit 2 and one stderr
    line that says the derivative orders overflowed."""

    def expire(signum, frame):
        raise Deadline(f"{argv[0]} did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("precondition violation:")
    assert "overflowed" in err


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

    def test_precondition_exit_code(self, mixture_files, capsys, tmp_path):
        a, b = mixture_files
        code, _ = run_cli(capsys, "dist", "--a", a, "--b", b,
                          "--metric", "wq", "--q", "1")
        assert code == 2
        # the message shows the sum as a plain float
        doc = GaussianMixture([0.5, 0.5], [0.0, 1.0], [1.0, 1.0]).to_json()
        doc["components"][1]["w"] = 0.6
        heavy = tmp_path / "heavy.json"
        heavy.write_text(json.dumps(doc))
        assert main(["dist", "--a", a, "--b", str(heavy), "--metric", "wq"]) == 2
        err = capsys.readouterr().err
        assert err == "precondition violation: weights sum to 1.1, not 1\n"

    def test_law_past_the_grid_is_one_line(self, mixture_files, capsys, tmp_path):
        # N(0, 1) against N(1e300, 1): the density underflows to 0 on the
        # common grid without an overflow warning, and the grid mass is typed
        a, _ = mixture_files
        far = tmp_path / "far.json"
        far.write_text(json.dumps(gaussian(1e300, 1.0).to_json()))
        assert main(["dist", "--a", a, "--b", str(far), "--metric", "tv"]) == 2
        err = capsys.readouterr().err
        assert err == (
            "precondition violation: grid mass 0.0 deviates from 1 beyond 1e-06\n"
        )

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("d", lambda doc: doc.pop("d")),
            ("d", lambda doc: doc.update(d="x")),
            ("d", lambda doc: doc.update(d=1.5)),
            ("components", lambda doc: doc.pop("components")),
            ("components", lambda doc: doc.update(components=[])),
            ("components", lambda doc: doc.update(components={"w": 1.0})),
            ("components[0].w", lambda doc: doc["components"][0].pop("w")),
            ("components[0].w", lambda doc: doc["components"][0].update(w="x")),
            ("components[0].w", lambda doc: doc["components"][0].update(w=None)),
            ("components[0].mean", lambda doc: doc["components"][0].pop("mean")),
            ("components[0].mean", lambda doc: doc["components"][0].update(mean=[0.0, 1.0])),
            ("components[0].mean", lambda doc: doc["components"][0].update(mean=[[0.0], 1.0])),
            ("components[0].cov", lambda doc: doc["components"][0].pop("cov")),
            ("components[0].cov", lambda doc: doc["components"][0].update(cov={})),
            ("components[0]", lambda doc: doc["components"].__setitem__(0, 3)),
        ],
    )
    def test_bad_mixture_field_is_one_line_precondition(
        self, mixture_files, capsys, field, edit
    ):
        a, b = mixture_files
        with open(b, encoding="utf-8") as fh:
            doc = json.load(fh)
        edit(doc)
        with open(b, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code = main(["dist", "--a", a, "--b", b, "--metric", "wq"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("precondition violation:")
        assert f"mixture field {field}" in err

    def test_bare_numbers_in_one_dimension(self):
        doc = {"d": 1, "components": [{"w": 1.0, "mean": 0.5, "cov": 2.0}]}
        assert GaussianMixture.from_json(doc) == gaussian(0.5, 2.0)

    @pytest.mark.parametrize(
        "argv",
        [
            ("dist", "--metric", "rho_p"),
            ("dist", "--metric", "tv"),
            ("dist", "--metric", "wq"),
            ("envelope", "--side", "frequency"),
            ("certify", "--regime", "lemma1"),
        ],
    )
    def test_planar_mixture_is_one_line_precondition(
        self, mixture_files, capsys, tmp_path, argv
    ):
        a, _ = mixture_files
        planar = tmp_path / "planar.json"
        planar.write_text(json.dumps(PLANAR_DOC))
        if argv[0] == "envelope":
            argv = (*argv, "--input", str(planar))
        else:
            argv = (*argv, "--a", a, "--b", str(planar))
        code = main(list(argv))
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("precondition violation:")
        assert "mixture field d must be 1" in err

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

    @pytest.mark.parametrize("side", ["density", "frequency"])
    def test_order_past_the_float_range_is_one_line(self, mixture_files, capsys, side):
        # x^400 and u^400 leave the float range on the default grid
        a, _ = mixture_files
        assert_overflow_within_deadline(
            capsys, ["envelope", "--input", a, "--side", side, "--K", "400"]
        )


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

    @pytest.mark.parametrize(
        "args, field",
        [
            (("--regime", "pointwise", "--alpha", "x"), "--alpha"),
            (("--regime", "pointwise", "--alpha", "0.5"), "--alpha"),
            (("--regime", "pointwise", "--alpha", "1,1"), "alpha"),
            (("--regime", "lemma1", "--p", "1e308"), "weight power p"),
            (("--regime", "pointwise", "--p", "1e308"), "weight power p"),
        ],
    )
    def test_bad_option_is_one_line_precondition(
        self, mixture_files, capsys, args, field
    ):
        a, b = mixture_files
        code = main(["certify", "--a", a, "--b", b, *args])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("precondition violation:")
        assert field in err

    def test_weight_power_past_the_derivative_range_is_one_line(
        self, mixture_files, capsys
    ):
        # p_even = 1e6 is the order of each law's derivative stack
        a, b = mixture_files
        assert_overflow_within_deadline(
            capsys, ["certify", "--a", a, "--b", b, "--regime", "lemma1", "--p", "1e6"]
        )


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
            ("seed", "x"),
            ("seed", 2.7),
            ("seed", -1),
            ("seed", True),
            ("entropic_check", "false"),
            ("entropic_check", 1),
            ("entropic_check", None),
            ("name", 5),
            ("box_sigmas", 1e308),
            ("p", 1e308),
        ],
    )
    def test_bad_field_is_one_line_precondition(self, tmp_path, capsys, field, value):
        doc = self.scenario_doc()
        doc[field] = value
        self.assert_one_line_precondition(tmp_path, capsys, doc, field)

    @pytest.mark.parametrize(
        "field", ["name", "base", "perturbation", "h_grid", "p", "q", "epsilon"]
    )
    def test_missing_field_is_one_line_precondition(self, tmp_path, capsys, field):
        doc = self.scenario_doc()
        del doc[field]
        self.assert_one_line_precondition(tmp_path, capsys, doc, field)

    @pytest.mark.parametrize("field", ["d", "components", "w", "mean", "cov"])
    def test_missing_base_field_is_one_line_precondition(self, tmp_path, capsys, field):
        doc = self.scenario_doc()
        base = doc["base"]
        del (base if field in base else base["components"][0])[field]
        self.assert_one_line_precondition(tmp_path, capsys, doc, field)

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("base", lambda doc: doc.update(base=PLANAR_DOC)),
            ("contaminant", lambda doc: doc.update(
                perturbation="mixture-weight", contaminant=PLANAR_DOC,
            )),
        ],
    )
    def test_multivariate_law_is_one_line_precondition(
        self, tmp_path, capsys, field, edit
    ):
        doc = self.scenario_doc()
        edit(doc)
        self.assert_one_line_precondition(tmp_path, capsys, doc, field)

    def test_non_object_scenario_is_one_line_precondition(self, tmp_path, capsys):
        self.assert_one_line_precondition(tmp_path, capsys, [1, 2], "JSON object")

    def test_valid_seed_and_flag_are_kept(self):
        doc = self.scenario_doc()
        doc.update(seed=7, entropic_check=True)
        sc = Scenario.from_json(doc)
        assert (sc.seed, sc.entropic_check) == (7, True)
        assert Scenario.from_json(sc.to_json()) == sc

    def assert_one_line_precondition(self, tmp_path, capsys, doc, field):
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps(doc))
        code = main(["sweep", "--scenario", str(sc), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("precondition violation:")
        assert field in err
        assert not (tmp_path / "o").exists()

    def test_unknown_format_rejected_before_the_sweep(
        self, tmp_path, capsys, monkeypatch
    ):
        def forbidden(sc):
            raise AssertionError("an unknown format must stop the command first")

        monkeypatch.setattr("tvrates.cli.run_sweep", forbidden)
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps(self.scenario_doc()))
        code = main(["sweep", "--scenario", str(sc), "--out", str(tmp_path / "o"),
                     "--formats", "csv,pdf"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "'pdf'" in err
        assert not (tmp_path / "o").exists()

    def test_precondition_row_failures_exit_2_naming_each_once(self, tmp_path, capsys):
        # at epsilon = 0.02 every row's envelope overflows: the input's fault
        doc = default_scenarios()[0].to_json()
        doc.update(epsilon=0.02, h_grid=doc["h_grid"][:3])
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps(doc))
        code = main(["sweep", "--scenario", str(sc), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("precondition violation:")
        assert "3 of 3 rows failed" in err
        assert err.count("envelope entries overflowed") == 1

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


# Values a fuzzed document field is set to.
FUZZ_VALUES = (None, "x", math.nan, -1, [], {}, True)

# Commands run on a fuzzed mixture document (the second law of the pair).
MIXTURE_COMMANDS = (
    ("dist", "--metric", "wq"),
    ("dist", "--metric", "tv"),
    ("dist", "--metric", "rho_p"),
    ("certify", "--regime", "lemma1"),
)


def _key_paths(doc, prefix=()):
    """The path of every value inside a JSON document's objects and lists."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _key_paths(value, prefix + (key,))


@st.composite
def fuzzed_runs(draw):
    """``(document kind, fuzzed document, command)``: a valid scenario or
    mixture document with one key dropped or set to one of FUZZ_VALUES."""
    kind = draw(st.sampled_from(("scenario", "mixture")))
    if kind == "scenario":
        doc = TestSweep().scenario_doc()
    else:
        doc = gaussian(0.5, 2.0).to_json()
    path = draw(st.sampled_from(list(_key_paths(doc))))
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    if isinstance(owner, dict) and draw(st.booleans()):
        del owner[path[-1]]
    else:
        owner[path[-1]] = draw(st.sampled_from(FUZZ_VALUES))
    command = None if kind == "scenario" else draw(st.sampled_from(MIXTURE_COMMANDS))
    return kind, doc, command


@settings(max_examples=60, deadline=None, derandomize=True)
@given(run=fuzzed_runs())
def test_fuzzed_documents_exit_with_a_code_and_one_line(run):
    kind, doc, command = run
    with tempfile.TemporaryDirectory() as tmp:
        fuzzed = os.path.join(tmp, "doc.json")
        with open(fuzzed, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        if kind == "scenario":
            argv = ["sweep", "--scenario", fuzzed, "--out", os.path.join(tmp, "out")]
        else:
            a = os.path.join(tmp, "a.json")
            with open(a, "w", encoding="utf-8") as fh:
                json.dump(gaussian(0.0, 1.0).to_json(), fh)
            argv = [command[0], "--a", a, "--b", fuzzed, *command[1:]]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3, 4)
    assert err.getvalue().count("\n") <= 1
