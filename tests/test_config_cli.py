import numpy as np
import pytest

from risbeam.cli import main
from risbeam.codebook import MODE_UNCOMPENSATED, read_codebook
from risbeam.config import (
    OUTPUT_DIR_ENV,
    default_output_dir,
    load_campaign_config,
)
from risbeam.datasets import read_beampattern, read_table, write_beampattern
from risbeam.errors import ConfigError
from risbeam.surrogate import load_model

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

    def test_bad_config_exits_2(self, tmp_path, capsys):
        ini = tmp_path / "c.ini"
        ini.write_text("[array]\nnx = -2\n")
        assert main(["codebook", "--config", str(ini),
                     "--out", str(tmp_path / "cb.csv")]) == 2
        assert "config error" in capsys.readouterr().err


class TestSimulateCommand:
    def test_beampattern_roundtrip(self, small_config, tmp_path, capsys):
        out = tmp_path / "bp.csv"
        assert main(["simulate", "--config", str(small_config),
                     "--out", str(out)]) == 0
        assert "9 rows x 3 columns" in capsys.readouterr().out
        table = read_beampattern(out)
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

    def test_non_utf8_table_exits_1(self, tmp_path, capsys):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"theta_n,phi_n,rot_0\n0,0,-60\xb0\n")
        assert main(["analyze", str(p), "--hpbw"]) == 1
        err = capsys.readouterr().err
        assert "UTF-8" in err and "Traceback" not in err

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

    def test_train_on_absorption_exits_1(self, slice_absorption_csv,
                                         tmp_path, capsys):
        assert main(["train", str(slice_absorption_csv),
                     "--out", str(tmp_path / "m.txt")]) == 1
        assert "beampattern" in capsys.readouterr().err


class TestArgparsePassthrough:
    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "codebook" in capsys.readouterr().out

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2
