"""Smoke tests: each script in scripts/ runs end to end on tiny inputs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, argv):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main([str(a) for a in argv])


def test_localization_study(capsys):
    assert run_script("localization_study", ["--seeds", 1]) == 0
    assert "seed  0:" in capsys.readouterr().out


def test_sample_count_cdf(tmp_path):
    assert run_script("sample_count_cdf",
                      ["--trials", 20, "--out", tmp_path]) == 0
    assert {p.name for p in tmp_path.iterdir()} == {"cdf.csv", "cdf.svg"}


@pytest.mark.parametrize("epochs, written", [
    (2, {"model.txt", "loss_curve.svg"}),
    (1, {"model.txt"}),  # one point draws no curve
    (0, {"model.txt"}),
])
def test_train_surrogate(tmp_path, capsys, epochs, written):
    assert run_script("train_surrogate",
                      ["--epochs", epochs, "--out", tmp_path]) == 0
    assert {p.name for p in tmp_path.iterdir()} == written
    if epochs < 2:
        assert "no loss curve" in capsys.readouterr().out
