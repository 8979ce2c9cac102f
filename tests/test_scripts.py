"""Smoke tests: each script in scripts/ runs end to end on tiny inputs."""

import importlib.util
from pathlib import Path

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


def test_every_script_has_a_smoke_test():
    """scripts/ holds exactly the scripts this module tests by name, so a
    script cannot be added or removed untested."""
    smoke = {name.removeprefix("test_") for name in globals()
             if name.startswith("test_")} - {"every_script_has_a_smoke_test"}
    assert {p.stem for p in SCRIPTS.glob("*.py")} == smoke
