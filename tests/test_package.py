"""The package's public surface: each module's `__all__` lists its public
names once, and `risbeam` re-exports the modules' lists."""

import importlib
import pkgutil

import risbeam

# the re-exported modules, in the package's import order
REEXPORTED = ("array_model", "chamber", "codebook", "analysis", "config",
              "datasets", "errors", "surrogate")

# every name `risbeam` exported before its list was built from the modules'
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
    "localize_aoa", "lookup", "nmse", "quantization_loss", "quantize_config",
    "quantize_phases", "read_absorption", "read_beampattern", "read_codebook",
    "read_table", "received_signal", "rsrp", "sample_count_study",
    "save_model", "savitzky_golay", "split_records", "steering_vector",
    "sweep_absorption", "sweep_beampattern", "train", "uniform_phase_set",
    "write_absorption", "write_beampattern", "write_codebook",
})


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
    assert len(FROZEN_NAMES) == 66
    assert FROZEN_NAMES <= set(risbeam.__all__)
