"""The package's public surface: each module's `__all__` lists its public
names once, and `risbeam` re-exports the modules' lists."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import risbeam

# the re-exported modules, in the package's import order
REEXPORTED = ("array_model", "chamber", "codebook", "analysis", "config",
              "datasets", "errors", "surrogate")

# every name `risbeam` exported before its list was built from the modules',
# less the readers and helpers that only tests called
FROZEN_NAMES = frozenset({
    "AbsorptionTable", "ArraySpec", "BeampatternTable", "CampaignConfig",
    "ChamberGeometry", "Codebook", "CodebookGrid", "ConfigError", "Direction",
    "DomainError", "ExpFit", "FitDivergenceError", "LinkBudget",
    "LobeTruncatedError", "LocalizedColumn", "MODE_TX_COMPENSATED",
    "MODE_UNCOMPENSATED", "MlpModel", "MlpSpec", "ModelFormatError",
    "NotFoundError", "ParseError", "Pattern3D", "PhaseConfig", "RisbeamError",
    "SampleCountStudy", "SgFilterSpec", "TrainSpec", "absorption_masks",
    "build_codebook", "element_phase_profile", "field_regions",
    "fit_exponential", "flatten_table", "gradient_check", "hpbw",
    "hpi_reconstruct", "ideal_config", "load_campaign_config",
    "load_column_mapping", "load_model", "localization_success_rate",
    "localize_aoa", "nmse", "quantization_loss", "quantize_config",
    "quantize_phases", "read_codebook", "read_table", "received_signal",
    "rsrp", "sample_count_study", "save_model", "savitzky_golay",
    "steering_vector", "sweep_absorption", "sweep_beampattern", "train",
    "uniform_phase_set", "write_absorption", "write_beampattern",
    "write_codebook",
})

# Parameters of the public callables whose signature `inspect.signature`
# reads; exceptions without an __init__ of their own have none.  A change
# that moves this count says why in CHANGES.md, so that a new knob shows up
# in review.
SETTABLE_PARAMETERS = 151


def _module(name):
    return importlib.import_module(f"risbeam.{name}")


def test_every_module_defines_all():
    names = [m.name for m in pkgutil.iter_modules(risbeam.__path__)]
    assert set(REEXPORTED) <= set(names)
    for name in names:
        assert isinstance(getattr(_module(name), "__all__", None), list), name


def test_package_all_is_the_modules_lists():
    expected = [n for name in REEXPORTED for n in _module(name).__all__]
    assert risbeam.__all__ == expected
    assert len(set(expected)) == len(expected)
    assert not [n for n in expected if n.startswith("_")]


def test_exports_are_the_module_objects():
    for name in REEXPORTED:
        module = _module(name)
        for export in module.__all__:
            assert getattr(risbeam, export) is getattr(module, export), export


def test_earlier_names_kept():
    assert len(FROZEN_NAMES) == 62
    assert FROZEN_NAMES <= set(risbeam.__all__)


def _names_used(path) -> set:
    """Every name `path` reads or binds as a plain name or an attribute:
    ``__all__`` strings and import statements are no use of a name."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_public_name_has_a_caller():
    """A public name is one the package, the scripts, the benchmark or an
    acceptance criterion uses; one only the other tests reach is private
    or goes."""
    root = Path(__file__).resolve().parents[1]
    paths = [*(root / "src" / "risbeam").glob("*.py"),
             *(root / "scripts").glob("*.py"),
             *(root / "perfbench").glob("*.py"),
             root / "tests" / "test_acceptance.py"]
    used = set().union(*map(_names_used, paths))
    assert [n for n in risbeam.__all__ if n not in used] == []


def test_tracer_targets_resolve():
    """Every (module, class, attribute) that perfbench/tracing.py wraps is
    defined where the tracer looks it up, so a traced benchmark run can
    install its wrappers.  TARGETS is read with ast: perfbench is not
    imported."""
    root = Path(__file__).resolve().parents[1]
    tree = ast.parse((root / "perfbench" / "tracing.py").read_text(
        encoding="utf-8"))
    targets = next(node.value for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets]
                   == ["TARGETS"])
    missing = []
    for entry in targets.elts:
        module, cls, attr = (ast.literal_eval(e) for e in entry.elts[:3])
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls, None)
        if attr not in getattr(owner, "__dict__", {}):
            missing.append((module, cls, attr))
    assert len(targets.elts) > 0
    assert missing == []


def test_public_settable_parameter_count():
    count = 0
    for name in risbeam.__all__:
        obj = getattr(risbeam, name)
        if not callable(obj):
            continue
        try:
            count += len(inspect.signature(obj).parameters)
        except ValueError:
            pass
    assert count == SETTABLE_PARAMETERS


@pytest.mark.parametrize("make, name", [
    (lambda: risbeam.SgFilterSpec(order=False), "order"),
    (lambda: risbeam.uniform_phase_set(True), "phase set size"),
    (lambda: risbeam.ArraySpec(True, 2), "nx"),
    (lambda: risbeam.ArraySpec(2, True), "ny"),
    (lambda: risbeam.LinkBudget(samples_per_point=True), "samples_per_point"),
    (lambda: risbeam.sample_count_study(-60.0, 0.5, [1], 1, seed=False),
     "seed"),
    (lambda: risbeam.sample_count_study(-60.0, 0.5, [1], True), "trials"),
    (lambda: risbeam.sample_count_study(-60.0, 0.5, [True], 1), "count"),
    (lambda: risbeam.MlpSpec(True, 2), "hidden_layers"),
    (lambda: risbeam.TrainSpec(epochs=True), "epochs"),
    (lambda: risbeam.TrainSpec(seed=False), "seed"),
])
def test_bool_is_not_an_integer(make, name):
    """True is 1 to Python, but a count, size or seed given as a bool is a
    caller's mistake, refused like numpy's bool_ always was."""
    with pytest.raises(risbeam.DomainError, match=name):
        make()


def test_no_c_text_parser_reads_inputs():
    """Input text is split in Python and converted cell by cell or from
    checked bytes, never by numpy's C text parsers: `loadtxt` crashed the
    interpreter now and then on a row ending in an astral character
    (numpy 2.4.6), skips blank lines, and with `usecols` accepts rows with
    extra fields."""
    banned = {"loadtxt", "genfromtxt", "fromstring"}
    for path in Path(risbeam.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", ""))
                assert name not in banned, f"{path.name}:{node.lineno}"
