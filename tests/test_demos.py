import os
import runpy

DEMOS = os.path.join(os.path.dirname(__file__), os.pardir, "demos")


def test_certificate_demo_runs(capsys):
    # the one demo that builds certificates, kept in step with their API
    runpy.run_path(os.path.join(DEMOS, "04_envelopes_and_certificates.py"))
    assert "satisfied = True" in capsys.readouterr().out


def test_transport_demo_runs(capsys):
    runpy.run_path(os.path.join(DEMOS, "02_discrete_transport.py"))
    assert "n =  512" in capsys.readouterr().out


def test_distances_demo_runs(capsys):
    runpy.run_path(os.path.join(DEMOS, "01_distances.py"))
    assert "W_2         = 1.0000000000" in capsys.readouterr().out


def test_spectral_demo_runs(capsys):
    runpy.run_path(os.path.join(DEMOS, "03_spectral_machinery.py"))
    assert "at +0.0000: grid -1.0000000000" in capsys.readouterr().out
