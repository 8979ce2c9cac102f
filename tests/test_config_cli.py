import dataclasses
import hashlib
import warnings

import numpy as np
import pytest

from risbeam.analysis import SgFilterSpec, savitzky_golay
from risbeam.array_model import ArraySpec
from risbeam.chamber import ChamberGeometry, LinkBudget, field_regions
from risbeam import cli, errors
from risbeam.cli import _build_parser, main
from risbeam.codebook import CodebookGrid, MODE_UNCOMPENSATED, read_codebook
from risbeam.config import (
    _KEYS,
    OUTPUT_DIR_ENV,
    default_output_dir,
    load_campaign_config,
)
from risbeam.datasets import (
    BeampatternTable,
    read_table,
    write_beampattern,
)
from risbeam.errors import ConfigError
from risbeam.surrogate import TrainSpec, flatten_table, load_model

SMALL_CAMPAIGN = """
[array]
nx = 4
ny = 4

[budget]
sample_sigma_db = 0

[codebook]
azimuth_min_deg = -15
azimuth_max_deg = 15
azimuth_step_deg = 15
elevation_min_deg = -15
elevation_max_deg = 15
elevation_step_deg = 15

[geometry]
rotation_min_deg = -15
rotation_max_deg = 15
rotation_step_deg = 15
"""

# one-elevation codebook over the full turn: 61 beams, absorption-friendly
SLICE_CAMPAIGN = """
[budget]
sample_sigma_db = 0

[codebook]
elevation_min_deg = -3
elevation_max_deg = -3
elevation_step_deg = 3
"""


@pytest.fixture()
def small_config(tmp_path):
    p = tmp_path / "campaign.ini"
    p.write_text(SMALL_CAMPAIGN)
    return p


class TestConfig:
    def test_no_file_gives_defaults(self):
        cfg = load_campaign_config(None)
        assert cfg.array.nx == 10 and cfg.array.ny == 10
        assert cfg.array.phase_set.size == 8
        assert len(cfg.grid) == 1891
        assert cfg.mode == "tx-compensated"
        assert cfg.seed == 0
        assert cfg.budget.sample_sigma_db == 0.5

    def test_empty_file_equals_defaults(self, tmp_path):
        p = tmp_path / "empty.ini"
        p.write_text("")
        cfg = load_campaign_config(p)
        assert len(cfg.grid) == 1891

    def test_values_land(self, small_config):
        cfg = load_campaign_config(small_config)
        assert cfg.array.nx == 4
        assert cfg.budget.sample_sigma_db == 0.0
        assert len(cfg.grid) == 9
        assert cfg.geometry.rotations().size == 3

    def test_mode_and_phase_count(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[codebook]\nmode = uncompensated\n"
                     "[array]\nphase_count = 4\n")
        cfg = load_campaign_config(p)
        assert cfg.mode == MODE_UNCOMPENSATED
        assert cfg.array.phase_set.size == 4

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[arrray]\nnx = 4\n")
        with pytest.raises(ConfigError, match="unknown section"):
            load_campaign_config(p)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[array]\nn_x = 4\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_campaign_config(p)

    def test_bad_int_rejected(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[array]\nnx = four\n")
        with pytest.raises(ConfigError):
            load_campaign_config(p)

    def test_domain_violation_becomes_config_error(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[array]\nnx = 0\n")
        with pytest.raises(ConfigError):
            load_campaign_config(p)

    def test_bad_mode_rejected(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[codebook]\nmode = compensated\n")
        with pytest.raises(ConfigError, match="mode"):
            load_campaign_config(p)

    def test_negative_seed_rejected(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[campaign]\nseed = -3\n")
        with pytest.raises(ConfigError, match="seed"):
            load_campaign_config(p)

    def test_seed_beyond_128_bits_rejected(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text(f"[campaign]\nseed = {2 ** 128}\n")
        with pytest.raises(ConfigError, match="seed"):
            load_campaign_config(p)
        p.write_text(f"[campaign]\nseed = {2 ** 128 - 1}\n")
        assert load_campaign_config(p).seed == 2 ** 128 - 1

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nnx = 4\n",  # no section would pick nx up
        "[DEFAULT]\nnx = 4\n[array]\nny = 5\n",  # configparser merges it
    ])
    def test_default_section_rejected(self, text, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text(text)
        with pytest.raises(ConfigError, match=r"\[DEFAULT\]"):
            load_campaign_config(p)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_campaign_config(tmp_path / "nope.ini")

    def test_output_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "outputs"))
        assert default_output_dir() == tmp_path / "outputs"
        cfg = load_campaign_config(None)
        assert cfg.output_dir == tmp_path / "outputs"

    def test_config_output_dir_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "env"))
        p = tmp_path / "c.ini"
        p.write_text(f"[campaign]\noutput_dir = {tmp_path / 'file'}\n")
        cfg = load_campaign_config(p)
        assert cfg.output_dir == tmp_path / "file"


class TestCodebookCommand:
    def test_default_grid_entry_count(self, tmp_path, capsys):
        out = tmp_path / "cb.csv"
        assert main(["codebook", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "1891 entries" in stdout
        assert len(read_codebook(out)) == 1891

    def test_extended_grid_entry_count(self, tmp_path, capsys):
        ini = tmp_path / "c.ini"
        ini.write_text("[codebook]\nelevation_min_deg = -90\n"
                       "elevation_max_deg = 90\n")
        out = tmp_path / "cb.csv"
        assert main(["codebook", "--config", str(ini),
                     "--out", str(out)]) == 0
        assert "3721 entries" in capsys.readouterr().out

    def test_output_dir_env_fallback(self, small_config, tmp_path,
                                     monkeypatch, capsys):
        outdir = tmp_path / "resultdir"
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(outdir))
        assert main(["codebook", "--config", str(small_config)]) == 0
        assert (outdir / "codebook.csv").exists()

    @pytest.mark.parametrize("command", ["codebook", "simulate"])
    def test_seed_beyond_128_bits_exits_2(self, command, tmp_path, capsys):
        ini = tmp_path / "c.ini"
        ini.write_text(SMALL_CAMPAIGN + f"\n[campaign]\nseed = {2 ** 128}\n")
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(ini), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "seed" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_memory_error_exits_1(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(cli, "build_codebook", no_memory)
        out = tmp_path / "cb.csv"
        assert main(["codebook", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: MemoryError\n"
        assert not out.exists()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        ini = tmp_path / "c.ini"
        ini.write_text("[array]\nnx = -2\n")
        assert main(["codebook", "--config", str(ini),
                     "--out", str(tmp_path / "cb.csv")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("text, where", [
        ("[array]\nnx = 4\nfoo\n", "[line  3]: 'foo\\n'"),
        ("nx = 4\n", "line: 1 'nx = 4\\n'"),
    ], ids=["bad-line", "no-section"])
    def test_ini_syntax_error_is_one_line(self, text, where, tmp_path,
                                          capsys):
        """configparser spreads a syntax error over lines of their own;
        the CLI reports it on one that still names the file and the line."""
        ini = tmp_path / "c.ini"
        ini.write_text(text)
        assert main(["codebook", "--config", str(ini),
                     "--out", str(tmp_path / "cb.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert repr(str(ini)) in err and where in err


def test_large_phase_set_outputs_pinned(tmp_path, capsys):
    """sha256 of the 10x10, 4096-phase quiet codebook and beampattern, frozen
    before the block-wise builder, writer and phasor lookup went in."""
    ini = tmp_path / "k4096.ini"
    ini.write_text("[array]\nphase_count = 4096\n"
                   "[budget]\nsample_sigma_db = 0\n")
    digests = {}
    for command, name in (("codebook", "codebook.csv"),
                          ("simulate", "beampattern.csv")):
        out = tmp_path / name
        assert main([command, "--config", str(ini), "--out", str(out)]) == 0
        digests[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digests == {
        "codebook.csv": "c8da36517c6201650d35f14d73e968f9"
                        "b81f2fc63bfc75c1ef3ec28322d4fd1d",
        "beampattern.csv": "c30c29fdb00087b6dbf7bd0c10f9b174"
                           "bfccf5573b150dd1c9387af3146024bb",
    }


def test_default_noisy_outputs_pinned(tmp_path, capsys):
    """sha256 of the default seed-0 noisy beampattern and absorption tables,
    copied from the benchmark refs: every cell's chamber noise is the v1
    Philox stream, key = seed, counter = [0, 0, row, column]."""
    digests = {}
    for extra, name in (((), "beampattern.csv"),
                        (("--dataset", "absorption"), "absorption.csv")):
        out = tmp_path / name
        assert main(["simulate", *extra, "--out", str(out)]) == 0
        digests[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digests == {
        "beampattern.csv": "627b061213613622064b2ab25e26e895"
                           "53fd1b667c1f7cca6abacef8f9998f05",
        "absorption.csv": "e6138f1a4094d46200fa3994635cb9b1"
                          "045f550beca3e80dd010a9e5f1afbe5b",
    }


def test_large_array_outputs_pinned(tmp_path, capsys):
    """sha256 of the 64x64 quiet codebook and beampattern, copied from the
    benchmark refs; at 64x64 the sweep's product runs in 64-config blocks,
    which must leave every byte of the one-product table."""
    ini = tmp_path / "a64.ini"
    ini.write_text("[array]\nnx = 64\nny = 64\n"
                   "[budget]\nsample_sigma_db = 0\n")
    digests = {}
    for command, name in (("codebook", "codebook.csv"),
                          ("simulate", "beampattern.csv")):
        out = tmp_path / name
        assert main([command, "--config", str(ini), "--out", str(out)]) == 0
        digests[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digests == {
        "codebook.csv": "37fb89fc39a69de6b4893ad35245c10a"
                        "2b25bba8c30895ae8724efb6876ab3b5",
        "beampattern.csv": "b5d4036841fbec16584367930e0679f6"
                           "e075a6484becf93c43c089db1666f607",
    }


class TestSimulateCommand:
    def test_beampattern_roundtrip(self, small_config, tmp_path, capsys):
        out = tmp_path / "bp.csv"
        assert main(["simulate", "--config", str(small_config),
                     "--out", str(out)]) == 0
        assert "9 rows x 3 columns" in capsys.readouterr().out
        table = read_table(out)
        assert isinstance(table, BeampatternTable)
        table.validate()
        assert table.theta_t_deg == 0.0

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        ini = tmp_path / "noisy.ini"
        ini.write_text(SMALL_CAMPAIGN.replace("sample_sigma_db = 0",
                                              "sample_sigma_db = 0.5"))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", str(ini), "--out", str(a)]) == 0
        assert main(["simulate", "--config", str(ini), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_noisy_output(self, tmp_path, capsys):
        base = SMALL_CAMPAIGN.replace("sample_sigma_db = 0",
                                      "sample_sigma_db = 0.5")
        ini_a = tmp_path / "a.ini"
        ini_a.write_text(base)
        ini_b = tmp_path / "b.ini"
        ini_b.write_text(base + "\n[campaign]\nseed = 5\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", str(ini_a), "--out", str(a)]) == 0
        assert main(["simulate", "--config", str(ini_b), "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_absorption_dataset(self, tmp_path, capsys):
        ini = tmp_path / "slice.ini"
        ini.write_text(SLICE_CAMPAIGN)
        out = tmp_path / "ab.csv"
        assert main(["simulate", "--config", str(ini),
                     "--dataset", "absorption", "--out", str(out)]) == 0
        assert "61 rows x 4 columns" in capsys.readouterr().out
        read_table(out).validate()


@pytest.fixture(scope="module")
def slice_absorption_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("slice")
    ini = tmp / "slice.ini"
    ini.write_text(SLICE_CAMPAIGN)
    out = tmp / "ab.csv"
    assert main(["simulate", "--config", str(ini),
                 "--dataset", "absorption", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def default_beampattern_csv(tmp_path_factory, quiet_beampattern):
    path = tmp_path_factory.mktemp("bp") / "beampattern.csv"
    write_beampattern(quiet_beampattern, path)
    return path


class TestAnalyzeCommand:
    def test_no_flags_is_usage_error(self, default_beampattern_csv, capsys):
        assert main(["analyze", str(default_beampattern_csv)]) == 2
        assert "pick at least one" in capsys.readouterr().err

    def test_reconstruct_needs_tilt(self, default_beampattern_csv, capsys):
        assert main(["analyze", str(default_beampattern_csv),
                     "--reconstruct"]) == 2
        assert "--tilt" in capsys.readouterr().err

    def test_hpbw_default_beam_is_strongest(self, tmp_path, capsys):
        p = tmp_path / "two_rows.csv"
        p.write_text("theta_n,phi_n,rot_-3,rot_0,rot_3\n"
                     "0,0,-70,-60,-70\n"
                     "3,0,-75,-72,-74\n")
        assert main(["analyze", str(p), "--hpbw",
                     "--out-dir", str(tmp_path)]) == 0
        stdout = capsys.readouterr().out
        assert "beam (0, 0)" in stdout  # picked the strongest row
        assert (tmp_path / "hpbw.csv").exists()

    def test_hpbw_explicit_beam(self, default_beampattern_csv, tmp_path,
                                capsys):
        assert main(["analyze", str(default_beampattern_csv), "--hpbw",
                     "--beam", "0,-3", "--out-dir", str(tmp_path)]) == 0
        assert "beam (0, -3)" in capsys.readouterr().out

    def test_unknown_beam_exits_1(self, default_beampattern_csv, tmp_path,
                                  capsys):
        assert main(["analyze", str(default_beampattern_csv), "--hpbw",
                     "--beam", "1,0", "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "error" in err and "nearest azimuths" in err
        assert "Traceback" not in err

    def test_unknown_beam_fails_only_the_steps_that_use_it(
            self, default_beampattern_csv, tmp_path, capsys):
        assert main(["analyze", str(default_beampattern_csv), "--beam", "1,0",
                     "--smooth", "--localize", "--hpbw",
                     "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: hpbw: beam (1, 0)")
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "localization.csv", "smoothed.csv"]

    def test_malformed_beam_exits_2(self, default_beampattern_csv, capsys):
        for beam in ("1;0", "a,b", "1,nan", "inf,0", "0,0,0", "100,0"):
            assert main(["analyze", str(default_beampattern_csv), "--hpbw",
                         "--beam", beam]) == 2, beam
            assert "Traceback" not in capsys.readouterr().err, beam

    def test_localize_writes_estimates(self, default_beampattern_csv,
                                       tmp_path, capsys):
        assert main(["analyze", str(default_beampattern_csv), "--localize",
                     "--out-dir", str(tmp_path)]) == 0
        assert "localize:" in capsys.readouterr().out
        rows = (tmp_path / "localization.csv").read_text().splitlines()
        assert rows[0] == "theta_r,theta_n_hat,phi_n_hat,row"
        assert len(rows) == 62

    def test_smooth_and_svg(self, default_beampattern_csv, tmp_path, capsys):
        assert main(["analyze", str(default_beampattern_csv), "--smooth",
                     "--out-dir", str(tmp_path), "--svg"]) == 0
        assert (tmp_path / "smoothed.csv").exists()
        svg = (tmp_path / "beampattern.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_svg_alone_plots_the_cut(self, default_beampattern_csv, tmp_path,
                                     capsys):
        assert main(["analyze", str(default_beampattern_csv), "--svg",
                     "--beam", "0,-3", "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out.startswith("svg: wrote")
        assert [f.name for f in tmp_path.iterdir()] == ["beampattern.svg"]

    def test_svg_alone_plots_absorption_widths(self, slice_absorption_csv,
                                               tmp_path, capsys):
        assert main(["analyze", str(slice_absorption_csv), "--svg",
                     "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out.startswith("svg: wrote")
        assert [f.name for f in tmp_path.iterdir()] == ["hpbw.svg"]

    def test_negative_beam_in_equals_form(self, default_beampattern_csv,
                                          tmp_path, capsys):
        assert main(["analyze", str(default_beampattern_csv), "--hpbw",
                     "--beam=-45,-3", "--out-dir", str(tmp_path)]) == 0
        assert "beam (-45, -3)" in capsys.readouterr().out

    def test_unplottable_span_fails_only_svg(self, default_beampattern_csv,
                                             tmp_path, capsys):
        table = read_table(default_beampattern_csv)
        scaled = tmp_path / "t.csv"
        write_beampattern(BeampatternTable(
            table.beams, table.rotations * 1e306, table.power_dbm,
            table.theta_t_deg), scaled)
        out = tmp_path / "out"
        assert main(["analyze", str(scaled), "--beam", "0,-3", "--smooth",
                     "--localize", "--svg", "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: svg: x axis span")
        assert sorted(f.name for f in out.iterdir()) == [
            "localization.csv", "smoothed.csv"]

    def test_smooth_keeps_theta_t(self, tmp_path, capsys):
        p = tmp_path / "tilted.csv"
        p.write_text("# theta_t=10\ntheta_n,phi_n,rot_-3,rot_0,rot_3\n"
                     "0,0,-70,-60,-70\n3,0,-75,-72,-74\n")
        assert main(["analyze", str(p), "--smooth", "--sg-window", "3",
                     "--sg-order", "1", "--out-dir", str(tmp_path)]) == 0
        smoothed = read_table(tmp_path / "smoothed.csv")
        assert smoothed.theta_t_deg == 10.0
        np.testing.assert_array_equal(smoothed.rotations, [-3.0, 0.0, 3.0])
        assert (tmp_path / "smoothed.csv").read_text().startswith(
            "# theta_t=10\ntheta_n,phi_n,rot_-3,rot_0,rot_3\n0,0,")

    def test_reconstruct_writes_grid(self, default_beampattern_csv, tmp_path,
                                     capsys):
        assert main(["analyze", str(default_beampattern_csv),
                     "--reconstruct", "--tilt", "-3", "--beam", "0,-3",
                     "--out-dir", str(tmp_path)]) == 0
        assert "61x61 grid" in capsys.readouterr().out
        assert (tmp_path / "pattern3d.csv").exists()

    def test_fit_on_beampattern_exits_1(self, default_beampattern_csv,
                                        tmp_path, capsys):
        assert main(["analyze", str(default_beampattern_csv), "--fit",
                     "--out-dir", str(tmp_path)]) == 1
        assert "absorption" in capsys.readouterr().err

    def test_fit_on_beampattern_writes_nothing(self, default_beampattern_csv,
                                               tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["analyze", str(default_beampattern_csv), "--smooth",
                     "--hpbw", "--localize", "--reconstruct", "--tilt", "-3",
                     "--svg", "--fit", "--out-dir", str(out)]) == 1
        assert "absorption" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_absorption_hpbw_and_fit(self, slice_absorption_csv, tmp_path,
                                     capsys):
        assert main(["analyze", str(slice_absorption_csv), "--hpbw", "--fit",
                     "--out-dir", str(tmp_path), "--svg"]) == 0
        stdout = capsys.readouterr().out
        assert "n=4 ->" in stdout
        assert "fit: a=" in stdout
        assert (tmp_path / "fit.csv").exists()
        assert (tmp_path / "hpbw.svg").exists()

    def test_absorption_rejects_beampattern_flags(self, slice_absorption_csv,
                                                  capsys):
        assert main(["analyze", str(slice_absorption_csv), "--smooth"]) == 1

    def test_absorption_missing_elevation_exits_1(self, slice_absorption_csv,
                                                  capsys):
        assert main(["analyze", str(slice_absorption_csv), "--hpbw",
                     "--elevation", "12"]) == 1
        assert "elevation" in capsys.readouterr().err

    def test_truncated_lobe_exits_1(self, tmp_path, capsys):
        p = tmp_path / "mono.csv"
        p.write_text("theta_n,phi_n," +
                     ",".join("rot_%d" % r for r in range(0, 30, 3)) + "\n" +
                     "0,0," + ",".join("%d" % (-80 + i) for i in range(10)) +
                     "\n")
        assert main(["analyze", str(p), "--hpbw",
                     "--out-dir", str(tmp_path)]) == 1
        assert "truncated" in capsys.readouterr().err

    def test_failing_step_keeps_the_others(self, tmp_path, capsys):
        p = tmp_path / "mono.csv"
        p.write_text("theta_n,phi_n," +
                     ",".join("rot_%d" % r for r in range(0, 30, 3)) + "\n" +
                     "0,0," + ",".join("%d" % (-80 + i) for i in range(10)) +
                     "\n")
        out = tmp_path / "out"
        assert main(["analyze", str(p), "--smooth", "--hpbw", "--localize",
                     "--svg", "--sg-window", "3", "--sg-order", "1",
                     "--out-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: hpbw: lobe truncated")
        assert captured.err.count("\n") == 1
        assert [line.split(":")[0] for line in captured.out.splitlines()] \
            == ["smooth", "localize", "svg"]
        assert sorted(f.name for f in out.iterdir()) == [
            "beampattern.svg", "localization.csv", "smoothed.csv"]

    def test_every_failing_step_is_reported(self, slice_absorption_csv,
                                            tmp_path, capsys):
        (tmp_path / "hpbw.csv").mkdir()  # neither file can be written
        (tmp_path / "fit.csv").mkdir()
        assert main(["analyze", str(slice_absorption_csv), "--hpbw", "--fit",
                     "--svg", "--out-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert [line.split(":")[:2] for line in captured.err.splitlines()] \
            == [["error", " hpbw"], ["error", " fit"]]
        assert captured.out.startswith("svg: wrote")
        assert (tmp_path / "hpbw.svg").exists()

    def test_missing_table_exits_1(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.csv"), "--hpbw"]) == 1

    def test_mapping_file(self, tmp_path, capsys):
        table = tmp_path / "ext.csv"
        table.write_text("az,el,angle_-3,angle_0,angle_3\n"
                         "0,0,-70,-60,-70\n0,3,-75,-72,-75\n")
        mapping = tmp_path / "cols.map"
        mapping.write_text("theta_n = az\nphi_n = el\nrot_prefix = angle_\n")
        assert main(["analyze", str(table), "--mapping", str(mapping),
                     "--localize", "--out-dir", str(tmp_path)]) == 0


@pytest.fixture(scope="module")
def small_beampattern_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("train")
    ini = tmp / "campaign.ini"
    ini.write_text(SMALL_CAMPAIGN)
    out = tmp / "bp.csv"
    assert main(["simulate", "--config", str(ini), "--out", str(out)]) == 0
    return out


class TestTrainPredictCommands:
    def test_train_writes_model(self, small_beampattern_csv, tmp_path,
                                capsys):
        model_path = tmp_path / "model.txt"
        assert main(["train", str(small_beampattern_csv),
                     "--out", str(model_path), "--epochs", "10",
                     "--batch-size", "5"]) == 0
        stdout = capsys.readouterr().out
        assert "train NMSE" in stdout and "val NMSE" in stdout
        load_model(model_path)

    def test_train_zero_epochs_history_is_the_header(
            self, small_beampattern_csv, tmp_path):
        history = tmp_path / "history.csv"
        assert main(["train", str(small_beampattern_csv),
                     "--out", str(tmp_path / "model.txt"), "--epochs", "0",
                     "--batch-size", "5", "--history", str(history)]) == 0
        assert history.read_text() == "epoch,train_loss,val_nmse\n"

    def test_predict_at_points(self, small_beampattern_csv, tmp_path,
                               capsys):
        model_path = tmp_path / "model.txt"
        main(["train", str(small_beampattern_csv), "--out", str(model_path),
              "--epochs", "2", "--batch-size", "5"])
        capsys.readouterr()
        assert main(["predict", str(model_path), "--at", "0,0,0",
                     "--at", "15,0,-15"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("0,0,0 -> ")
        assert lines[0].endswith(" dBm")

    def test_predict_table_to_csv(self, small_beampattern_csv, tmp_path,
                                  capsys):
        model_path = tmp_path / "model.txt"
        main(["train", str(small_beampattern_csv), "--out", str(model_path),
              "--epochs", "2", "--batch-size", "5"])
        out = tmp_path / "pred.csv"
        assert main(["predict", str(model_path),
                     "--table", str(small_beampattern_csv),
                     "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "theta_n,phi_n,theta_r,rsrp_dbm_pred"
        assert len(rows) == 1 + 9 * 3

    def test_predict_negative_at_in_equals_form(self, small_beampattern_csv,
                                                tmp_path, capsys):
        model_path = tmp_path / "model.txt"
        main(["train", str(small_beampattern_csv), "--out", str(model_path),
              "--epochs", "1", "--batch-size", "5"])
        capsys.readouterr()
        assert main(["predict", str(model_path), "--at=-10,0,0"]) == 0
        assert capsys.readouterr().out.startswith("-10,0,0 -> ")

    def test_predict_without_inputs_exits_2(self, small_beampattern_csv,
                                            tmp_path, capsys):
        model_path = tmp_path / "model.txt"
        main(["train", str(small_beampattern_csv), "--out", str(model_path),
              "--epochs", "1", "--batch-size", "5"])
        assert main(["predict", str(model_path)]) == 2

    def test_predict_bad_at_exits_2(self, small_beampattern_csv, tmp_path,
                                    capsys):
        model_path = tmp_path / "model.txt"
        main(["train", str(small_beampattern_csv), "--out", str(model_path),
              "--epochs", "1", "--batch-size", "5"])
        capsys.readouterr()
        for at in ("1,2", "a,b,c", "1,2,inf", "nan,0,0", "1,2,3,4"):
            assert main(["predict", str(model_path), "--at", at]) == 2, at
            err = capsys.readouterr().err
            assert "AZ,EL,ROT" in err and "Traceback" not in err, at

    def test_predict_corrupt_model_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a model\n")
        assert main(["predict", str(bad), "--at", "0,0,0"]) == 1

    def test_train_bad_seed_exits_2(self, small_beampattern_csv, tmp_path,
                                    capsys):
        for seed in ("-1", "-7", "x", "1.5"):
            assert main(["train", str(small_beampattern_csv), "--out",
                         str(tmp_path / "m.txt"), "--seed", seed]) == 2, seed
            err = capsys.readouterr().err
            assert "--seed" in err and "Traceback" not in err, seed
        assert not (tmp_path / "m.txt").exists()

    def test_train_unscorable_split_exits_1(self, small_beampattern_csv,
                                            tmp_path, capsys):
        # 27 records at 0.99 leave 26 to train on and 1 to validate
        assert main(["train", str(small_beampattern_csv), "--out",
                     str(tmp_path / "m.txt"), "--batch-size", "1",
                     "--split-fraction", "0.99", "--epochs", "2"]) == 1
        err = capsys.readouterr().err
        assert "26 training and 1 validation" in err
        assert "Traceback" not in err
        assert not (tmp_path / "m.txt").exists()

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_train_non_finite_learning_rate_exits_1(
            self, rate, small_beampattern_csv, tmp_path, capsys):
        assert main(["train", str(small_beampattern_csv), "--out",
                     str(tmp_path / "m.txt"), "--batch-size", "1",
                     "--epochs", "2", "--learning-rate", rate]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: learning_rate")
        assert not (tmp_path / "m.txt").exists()

    def test_train_on_absorption_exits_1(self, slice_absorption_csv,
                                         tmp_path, capsys):
        assert main(["train", str(slice_absorption_csv),
                     "--out", str(tmp_path / "m.txt")]) == 1
        assert "beampattern" in capsys.readouterr().err


def exact_angle(v: float) -> str:
    """An angle spelled as the integer when integral, else the shortest
    text that reads back as the same float."""
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def listcomp_predict_outputs(model_path, at_texts, table_path):
    """(CSV text, stdout text) of `predict`, formatted the way it was before
    the beam-by-rotation writer: one tuple per row, then a list of exact
    angle and "%.6f" field lists joined by str(), and one f-string per row
    for stdout."""
    model = load_model(model_path)
    rows = [tuple(float(v) for v in text.split(",")) for text in at_texts]
    if table_path:
        rows.extend((r[0], r[1], r[2])
                    for r in flatten_table(read_table(table_path))[:, :3])
    predictions = model.predict_batch(np.asarray(rows, dtype=float))
    lines = [["theta_n", "phi_n", "theta_r", "rsrp_dbm_pred"]] + [
        [exact_angle(a), exact_angle(e), exact_angle(r), "%.6f" % p]
        for (a, e, r), p in zip(rows, predictions)]
    csv = "".join(",".join(str(v) for v in line) + "\n" for line in lines)
    stdout = "".join(
        f"{exact_angle(a)},{exact_angle(e)},{exact_angle(r)} -> {p:.6f} dBm\n"
        for (a, e, r), p in zip(rows, predictions))
    return csv, stdout


@pytest.fixture(scope="module")
def default_model(tmp_path_factory, default_beampattern_csv):
    """`train --epochs 4 --seed 0` on the quiet default table, the model the
    benchmark's surrogate workload trains."""
    path = tmp_path_factory.mktemp("surrogate") / "model.txt"
    assert main(["train", str(default_beampattern_csv), "--out", str(path),
                 "--epochs", "4", "--seed", "0"]) == 0
    return path


def test_surrogate_model_pinned(default_beampattern_csv, default_model):
    """sha256 of the quiet default table and of the 4-epoch seed-0 model,
    frozen before training moved to preallocated buffers."""
    digests = [hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (default_beampattern_csv, default_model)]
    assert digests == [
        "331a4da5a8b4566ca289156bb22241d921284c29314e95dc49ba62900d735ee8",
        "f72635c8292677eaa8d5a9beb54e3f3e5a0afaa2cd791f26d3d0e53fa3db88cb",
    ]


def test_train_history_leaves_the_model_alone(
        default_beampattern_csv, default_model, tmp_path, capsys):
    """`train --history` writes a header and one row per epoch, and the
    model file is the pinned one trained without it."""
    model, history = tmp_path / "model.txt", tmp_path / "history.csv"
    assert main(["train", str(default_beampattern_csv), "--out", str(model),
                 "--epochs", "4", "--seed", "0",
                 "--history", str(history)]) == 0
    stdout = capsys.readouterr().out
    assert model.read_bytes() == default_model.read_bytes()
    lines = history.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_nmse"
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3", "4"]
    # the last epoch's val NMSE is the one train reports
    val = float(lines[-1].split(",")[2])
    assert stdout.endswith(
        f"val NMSE {val * 100:.4f}%\nwrote {model}\nwrote {history}\n")


def test_power_text_outputs_pinned(default_beampattern_csv, default_model,
                                   tmp_path, capsys):
    """sha256 of the outputs the benchmark compares only to 2e-6, so that a
    slip in a last printed digit shows: smoothed.csv and pattern3d.csv of
    the default seed-0 noisy table, and predict's file and stdout for the
    4-epoch model on the quiet table.  Frozen while each power was still
    spelled by one "%" per row or line."""
    table = tmp_path / "beampattern.csv"
    assert main(["simulate", "--out", str(table)]) == 0
    assert main(["analyze", str(table), "--beam", "0,-3", "--smooth",
                 "--reconstruct", "--tilt", "-3",
                 "--out-dir", str(tmp_path)]) == 0
    pred = tmp_path / "pred.csv"
    assert main(["predict", str(default_model), "--at", "0,-3,0",
                 "--at", "1.5,-2.25,-0.5", "--table",
                 str(default_beampattern_csv), "--out", str(pred)]) == 0
    capsys.readouterr()
    assert main(["predict", str(default_model), "--at", "0,-3,0",
                 "--table", str(default_beampattern_csv)]) == 0
    digests = [hashlib.sha256(data).hexdigest() for data in (
        (tmp_path / "smoothed.csv").read_bytes(),
        (tmp_path / "pattern3d.csv").read_bytes(),
        pred.read_bytes(), capsys.readouterr().out.encode())]
    assert digests == [
        "24c39116d91dbdfe07b36ae354ccbd57f689cede5a6f9018e4f20b8f31ba381e",
        "f9724027efbec7eb13de0a898fa0c3de75a01f09c97de28d587167e66f9c68f7",
        "7e21a93eaf411b0c4c242728a7bca780954671203bdb5c716114acb876b4ef59",
        "ea044bfa205b9593b6339750bec1b84b5ba4eee1c8f95e8d450d18ec3b66d473",
    ]


@pytest.fixture(scope="module")
def odd_angles_csv(tmp_path_factory):
    """Hand-written beampattern with non-grid, signed-zero and tiny angles."""
    path = tmp_path_factory.mktemp("odd") / "odd.csv"
    path.write_text(
        "# theta_t=0\n"
        "theta_n,phi_n,rot_-7.25,rot_-0,rot_1e-07,rot_0.1,rot_33.333333\n"
        "1.5,-0,-70,-70.5,-71,-71.5,-72\n"
        "-0,1e-07,-73,-73.25,-73.5,-73.75,-74\n"
        "33.25,-12.125,-75,-75.125,-75.25,-75.375,-75.5\n")
    return path


def test_odd_labels_read_back_exactly(odd_angles_csv, tmp_path, capsys):
    """Non-grid, tiny and signed-zero labels survive smoothing and
    localization: the smoothed table has the input's beams and rotations,
    and localization.csv's theta_r column is the rotations."""
    assert main(["analyze", str(odd_angles_csv), "--smooth", "--localize",
                 "--sg-window", "3", "--sg-order", "1",
                 "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    table = read_table(odd_angles_csv)
    smoothed = read_table(tmp_path / "smoothed.csv")
    assert np.array_equal(smoothed.beams, table.beams)
    assert np.array_equal(smoothed.rotations, table.rotations)
    rows = (tmp_path / "localization.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == table.rotations.tolist()


class TestPredictWriter:
    """predict --out bytes and stdout text against the per-row formatter."""

    CASES = {
        "at": (["0,-3,0"], False),
        "table": ([], True),
        "both": (["0,-3,0"], True),
        "repeated_at": (["0,-3,0", "15,0,-15", "0,-3,0"], False),
        "odd_at": (["1.5,-0.0,1e-7", "-0,0.25,-1e-7", "1e300,-2.5e-5,7"],
                   True),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("table_name", ["small", "odd"])
    def test_matches_listcomp_formatter(self, case, table_name,
                                        small_beampattern_csv,
                                        odd_angles_csv, tmp_path, capsys):
        table = {"small": small_beampattern_csv, "odd": odd_angles_csv}[
            table_name]
        model = tmp_path / "model.txt"
        assert main(["train", str(small_beampattern_csv), "--out",
                     str(model), "--epochs", "2", "--batch-size", "5"]) == 0
        at, with_table = self.CASES[case]
        argv = ["predict", str(model)]
        argv += ["--at=" + text for text in at]
        if with_table:
            argv += ["--table", str(table)]
        want_csv, want_stdout = listcomp_predict_outputs(
            model, at, table if with_table else None)
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == want_stdout
        out = tmp_path / "pred.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == want_csv.encode()

    def test_default_table_matches_listcomp_formatter(
            self, default_model, default_beampattern_csv, tmp_path, capsys):
        out = tmp_path / "pred.csv"
        assert main(["predict", str(default_model), "--at", "0,-3,0",
                     "--table", str(default_beampattern_csv),
                     "--out", str(out)]) == 0
        want_csv, _ = listcomp_predict_outputs(
            default_model, ["0,-3,0"], default_beampattern_csv)
        assert out.read_bytes() == want_csv.encode()

    def test_absorption_table_rejected_before_writing(
            self, small_beampattern_csv, slice_absorption_csv, tmp_path,
            capsys):
        model = tmp_path / "model.txt"
        assert main(["train", str(small_beampattern_csv), "--out",
                     str(model), "--epochs", "1", "--batch-size", "5"]) == 0
        out = tmp_path / "pred.csv"
        assert main(["predict", str(model), "--at", "0,-3,0", "--table",
                     str(slice_absorption_csv), "--out", str(out)]) == 1
        assert "beampattern" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [model]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("row", ["w", "b"])
    def test_non_finite_model_exits_1(self, value, row, small_beampattern_csv,
                                      tmp_path, capsys):
        model = tmp_path / "model.txt"
        assert main(["train", str(small_beampattern_csv), "--out",
                     str(model), "--epochs", "1", "--batch-size", "5"]) == 0
        lines = model.read_text().splitlines()
        i = next(i for i, line in enumerate(lines)
                 if line.startswith(row + " "))
        lines[i] = " ".join([row, value] + lines[i].split()[2:])
        model.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["predict", str(model), "--at", "0,-3,0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err and "Traceback" not in captured.err


class TestArgparsePassthrough:
    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "codebook" in capsys.readouterr().out

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2


@pytest.mark.parametrize("argv, code", [
    pytest.param(["analyze", "{path}", "--hpbw"], 1, id="table"),
    pytest.param(["predict", "{path}", "--at", "0,0,0"], 1, id="model"),
    pytest.param(["codebook", "--config", "{path}"], 2, id="ini"),
])
def test_non_utf8_input_exits_cleanly(argv, code, tmp_path, capsys):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"\xff\xfe" + "[array]\nnx = 4\n".encode("utf-16-le"))
    assert main([a.replace("{path}", str(p)) for a in argv]) == code
    err = capsys.readouterr().err
    assert "utf-8" in err.lower() and "Traceback" not in err


@pytest.mark.parametrize("argv, text, out", [
    pytest.param(["analyze", "{path}", "--hpbw", "--out-dir", "{out}"],
                 "theta_n,phi_n,rot_-3,rot_0,rot_3\n"
                 "0,0,-70,-60,-70\n3,0,-75,-72,-74\n", "hpbw.csv", id="table"),
    pytest.param(["codebook", "--config", "{path}", "--out", "{out}/cb.csv"],
                 SMALL_CAMPAIGN, "cb.csv", id="ini"),
])
def test_byte_order_mark_is_dropped(argv, text, out, tmp_path, capsys):
    written = []
    for name, bom in (("plain", ""), ("bom", "\ufeff")):
        d = tmp_path / name
        d.mkdir()
        p = d / "input"
        p.write_text(bom + text, encoding="utf-8")
        assert main([a.format(path=p, out=d) for a in argv]) == 0
        written.append((d / out).read_bytes())
    assert written[0] == written[1]
    assert not written[0].startswith("\ufeff".encode())  # none is written


# the nine integer-degree keys, which _axis_values turns into grid axes
DEGREE_KEYS = [("geometry", f"rotation_{part}_deg") for part in
               ("min", "max", "step")] + [
    ("codebook", f"{axis}_{part}_deg") for axis in ("azimuth", "elevation")
    for part in ("min", "max", "step")]


@pytest.mark.parametrize("section, key, value", [
    *[(s, k, v) for s, k in DEGREE_KEYS for v in ("nan", "inf", "-inf")],
    ("codebook", "azimuth_max_deg", "120"),
    ("codebook", "elevation_min_deg", "-93"),
    ("geometry", "rotation_max_deg", "93"),
])
def test_bad_degree_exits_2(section, key, value, tmp_path, capsys):
    ini = tmp_path / "c.ini"
    ini.write_text(f"[{section}]\n{key} = {value}\n")
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", str(ini), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert key.split("_")[0] in err
    assert not out.exists()


@pytest.mark.parametrize("section, key", [
    ("array", "nx"), ("array", "ny"), ("array", "phase_count"),
    ("budget", "samples_per_point"),
])
def test_size_numpy_cannot_index_exits_2(section, key, tmp_path, capsys):
    ini = tmp_path / "c.ini"
    ini.write_text(f"[{section}]\n{key} = {10 ** 20}\n")
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", str(ini), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "numpy can index" in err
    assert not out.exists()


def _assert_fields_equal(actual, expected):
    for f in dataclasses.fields(expected):
        a, e = getattr(actual, f.name), getattr(expected, f.name)
        assert np.array_equal(a, e), f"{type(expected).__name__}.{f.name}"


def test_default_campaign_equals_library_defaults():
    """The INI table's defaults and the dataclass defaults are one campaign."""
    cfg = load_campaign_config(None)
    _assert_fields_equal(cfg.array, ArraySpec(10, 10))
    _assert_fields_equal(cfg.geometry, ChamberGeometry())
    _assert_fields_equal(cfg.budget, LinkBudget())
    _assert_fields_equal(cfg.grid, CodebookGrid())


def test_cli_defaults_equal_spec_defaults():
    parser = _build_parser()
    args = parser.parse_args(["train", "t.csv", "--out", "m.txt"])
    _assert_fields_equal(args, TrainSpec())
    args = parser.parse_args(["analyze", "t.csv"])
    assert (args.sg_window, args.sg_order) == (SgFilterSpec().window,
                                               SgFilterSpec().order)


@pytest.mark.parametrize("text, flags", [
    pytest.param("# theta_t=0\ntheta_n,phi_n,rot_-3,rot_0,rot_3\n"
                 "nan,0,-60,-61,-62\n0,0,-60,-61,-62\n",
                 ["--beam", "0,0", "--smooth"], id="nan-beam"),
    pytest.param("# theta_t=0\ntheta_n,phi_n,rot_nan,rot_0,rot_3\n"
                 "0,0,-60,-61,-62\n", ["--smooth"], id="rot_nan"),
    pytest.param("# theta_t=0\ntheta_n,phi_n,rot_-3,rot_0,rot_1e999\n"
                 "0,0,-60,-61,-62\n", ["--smooth"], id="rot_1e999"),
    pytest.param("theta_n,phi_n,n_1,n_99999999999999999999999\n"
                 "0,0,-60,-61\n3,0,-60,-61\n", ["--hpbw", "--elevation", "0"],
                 id="count-past-int64"),
])
def test_unwritable_table_labels_exit_1(text, flags, tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_text(text)
    outdir = tmp_path / "out"
    assert main(["analyze", str(table), *flags, "--sg-window", "3",
                 "--sg-order", "1", "--out-dir", str(outdir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not outdir.exists() or not any(outdir.iterdir())


def _error_classes():
    return [c for c in vars(errors).values()
            if isinstance(c, type) and issubclass(c, BaseException)]


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda c: c.__name__)
def test_every_error_class_exits_cleanly(cls, monkeypatch, capsys):
    """main needs no list of the error classes: each one is a RisbeamError,
    exits 1 (2 for ConfigError) and prints one line."""
    assert issubclass(cls, errors.RisbeamError)

    def fail(path):
        raise cls("boom")

    monkeypatch.setattr(cli, "load_campaign_config", fail)
    assert main(["codebook"]) == (2 if cls is ConfigError else 1)
    err = capsys.readouterr().err
    assert err.endswith(": boom\n") and err.count("\n") == 1


def test_strongest_beam_outside_steering_range(default_beampattern_csv,
                                               tmp_path, capsys):
    """The default beam is keyed by the table's own labels, so a strongest
    row labelled (120, 0) is analyzed, and localize needs no beam at all."""
    table = read_table(default_beampattern_csv)
    beams = table.beams.copy()
    beams[np.argmax(table.power_dbm.max(axis=1))] = (120.0, 0.0)
    path = tmp_path / "bp120.csv"
    write_beampattern(BeampatternTable(beams, table.rotations,
                                       table.power_dbm, table.theta_t_deg),
                      path)
    assert main(["analyze", str(path), "--localize", "--reconstruct",
                 "--tilt", "-3", "--out-dir", str(tmp_path / "out")]) == 0
    assert "beam (120, 0)" not in capsys.readouterr().err
    assert sorted(f.name for f in (tmp_path / "out").iterdir()) == [
        "localization.csv", "pattern3d.csv"]


@pytest.mark.parametrize("window, order", [(25, 16), (13, 10)])
def test_high_order_smoothing_spec_writes_its_files(
        window, order, default_beampattern_csv, tmp_path, capfd):
    """Specs once refused as unfittable now smooth like any other: exit 0,
    both files written and nothing on stderr."""
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["analyze", str(default_beampattern_csv), "--smooth",
                     "--localize", "--sg-window", str(window), "--sg-order",
                     str(order), "--out-dir", str(out)]) == 0
    assert capfd.readouterr().err == ""
    assert sorted(f.name for f in out.iterdir()) == [
        "localization.csv", "smoothed.csv"]
    table = read_table(default_beampattern_csv)
    c = -61.25
    np.testing.assert_allclose(
        savitzky_golay(np.full(table.rotations.size, c),
                       SgFilterSpec(window=window, order=order)),
        c, rtol=0, atol=1e-9 * abs(c))


def test_high_order_smoothing_spec_on_full_turn(tmp_path, capfd):
    """A 181-point window at order 179 on a 181-column table: no
    LinAlgError traceback, no LAPACK message and no warning; both files
    are written."""
    ini = tmp_path / "turn.ini"
    ini.write_text(SLICE_CAMPAIGN + "\n[geometry]\nrotation_step_deg = 1\n")
    table = tmp_path / "bp.csv"
    assert main(["simulate", "--config", str(ini), "--out", str(table)]) == 0
    capfd.readouterr()
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["analyze", str(table), "--smooth", "--localize",
                     "--sg-window", "181", "--sg-order", "179",
                     "--out-dir", str(out)]) == 0
    assert capfd.readouterr().err == ""
    assert sorted(f.name for f in out.iterdir()) == [
        "localization.csv", "smoothed.csv"]
    c = -61.25
    np.testing.assert_allclose(
        savitzky_golay(np.full(181, c), SgFilterSpec(window=181, order=179)),
        c, rtol=0, atol=1e-9 * abs(c))


# A small noisy campaign on the paper's 10x10 array, whose absorption sides
# reach 10, and one other value for every INI key.
KEY_BASE = {
    "geometry": {"rotation_min_deg": -9, "rotation_max_deg": 9,
                 "rotation_step_deg": 3},
    "budget": {"samples_per_point": 2},
    "codebook": {"azimuth_min_deg": -6, "azimuth_max_deg": 6,
                 "azimuth_step_deg": 3, "elevation_min_deg": -3,
                 "elevation_max_deg": 3, "elevation_step_deg": 3},
}
KEY_CHANGES = {
    "nx": 11, "ny": 11, "element_spacing_wavelengths": 0.45,
    "frequency_hz": 5.8e9, "phase_count": 4,
    "tx_azimuth_deg": 9, "tx_elevation_deg": -30, "rx_elevation_deg": 0,
    "rotation_min_deg": -6, "rotation_max_deg": 6, "rotation_step_deg": 9,
    "diagonal_m": 0.5,
    "calibration_dbm": -50, "noise_floor_dbm": -70, "sample_sigma_db": 0.25,
    "samples_per_point": 3,
    "azimuth_min_deg": -3, "azimuth_max_deg": 3, "azimuth_step_deg": 6,
    "elevation_min_deg": 0, "elevation_max_deg": 0, "elevation_step_deg": 6,
    "mode": MODE_UNCOMPENSATED,
    "seed": 1, "output_dir": "moved",
}


def _campaign_outputs(workdir, values, monkeypatch):
    """The files `codebook` and both `simulate` datasets write from
    `values`, by path under `workdir`, and the chamber's field regions."""
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    ini = workdir / "campaign.ini"
    ini.write_text("".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for section, keys in values.items()))
    for argv in (["codebook"], ["simulate"],
                 ["simulate", "--dataset", "absorption"]):
        assert main([*argv, "--config", str(ini)]) == 0
    config = load_campaign_config(ini)
    files = {str(p.relative_to(workdir)): p.read_bytes()
             for p in workdir.rglob("*.csv")}
    return files, field_regions(config.geometry, config.array.frequency_hz)


@pytest.mark.parametrize("section, key", [
    (section, key) for section, keys in _KEYS.items() for key in keys])
def test_every_campaign_key_moves_an_output(section, key, tmp_path,
                                            monkeypatch):
    """No key is read and then ignored: another value changes a file's
    bytes, where the files land or, for the diagonal, the field regions."""
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    changed = {s: dict(keys) for s, keys in KEY_BASE.items()}
    changed.setdefault(section, {})[key] = KEY_CHANGES[key]
    assert (_campaign_outputs(tmp_path / "changed", changed, monkeypatch)
            != _campaign_outputs(tmp_path / "base", KEY_BASE, monkeypatch))
