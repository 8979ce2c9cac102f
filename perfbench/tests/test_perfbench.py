"""Tests of the benchmark itself, on a shrunken beam grid so they run in seconds.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import checks, harness, run, speed, tracing, workloads

ROOT = Path(__file__).resolve().parents[2]
# 31 azimuths x 3 elevations: still contains beam (0, -3), still wide
# enough for every lobe the analyses look for, and still >= 200 records
# for the trainer.
SMALL = {"codebook": {"azimuth_step_deg": 6, "elevation_min_deg": -6,
                      "elevation_max_deg": 0}}


def small(name, seed, tmp_path, extra=SMALL):
    return workloads.build(name, seed, tmp_path / name, ini_extra=extra)


def one_pass(w, refs=None):
    tally, seen = harness.Tally(), {}
    harness.setup(w, refs, tally, seen)
    return tally, harness.run_pass(w, refs, tally, seen)["digests"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_workload_passes_its_checks(name, tmp_path):
    extra = dict(SMALL, array={"nx": 10, "ny": 10}) if name == "large_array" else SMALL
    w = small(name, 1, tmp_path, extra)
    tally, digests = one_pass(w)
    assert tally.failed == 0, tally.notes
    assert tally.attempted == len(w.setup) + len(w.commands)
    assert len(digests) == sum(len(c.outputs) for c in w.commands)


def test_traced_run_spans_nest_and_self_times_fit_the_wall(tmp_path):
    w = small("campaign", 2, tmp_path)
    spans_path = tmp_path / "spans.jsonl"
    report = harness.run(w, 0.01, None, trace=True, spans_path=spans_path)
    assert report["failed"] == 0, report["failures"]
    assert report["traced_outputs_match_untraced"]

    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    by_id = {s["id"]: s for s in spans}
    assert {s["name"] for s in spans} >= {"cli.main", "chamber.sweep_beampattern",
                                          "array_model.quantize_phases"}
    for s in spans:
        assert s["start"] <= s["end"]
        if s["parent"] is not None:
            p = by_id[s["parent"]]
            assert p["start"] <= s["start"] and s["end"] <= p["end"]
            assert (p["pass"], p["cmd"]) == (s["pass"], s["cmd"])
        else:
            assert s["name"] == "cli.main"

    rows = [[s["id"], s["name"], s["parent"], s["pass"], s["cmd"], s["start"], s["end"]]
            for s in spans]
    own = tracing.self_times(rows)
    assert min(own.values()) >= 0.0
    for _, group in tracing.group_by_pass(rows).items():
        wall = max(r[6] for r in group) - min(r[5] for r in group)
        assert sum(own[r[0]] for r in group) <= wall + 1e-9

    layers = report["layers"]
    assert set(layers) == set(tracing.metric_units())
    assert layers["cli.main.calls"] == len(w.commands)
    assert layers["chamber.sweep_beampattern.cells"] == 93 * 61
    assert layers["analysis.fit_exponential.iterations"] > 0
    assert layers["cli.main.self_s"] <= layers["cli.main.s"]


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    from risbeam import cli, surrogate
    before = (cli.main, cli.sweep_beampattern, surrogate.MlpModel.predict_batch)
    harness.run(small("surrogate", 0, tmp_path), 0.01, None, trace=True)
    assert (cli.main, cli.sweep_beampattern, surrogate.MlpModel.predict_batch) == before


def test_corrupted_reference_counts_failures_without_stopping(tmp_path):
    refs_dir = tmp_path / "refs"
    refs_dir.mkdir()
    (refs_dir / "hashes.json").write_text(json.dumps(
        {"any_seed": {"campaign/codebook.csv": "0" * 64}, "seed0": {}}))
    report = harness.run(small("campaign", 0, tmp_path), 0.01, checks.Refs(refs_dir))
    passes = report["timings"]["pass_s"]["n"]
    assert report["failed"] == passes               # the codebook, once per pass
    assert report["attempted"] == passes * 7
    assert report["error_rate"] == pytest.approx(1 / 7)
    assert "pinned" in report["failures"][0]


def test_corrupted_input_counts_failures_without_stopping(tmp_path):
    w = small("surrogate", 0, tmp_path)
    tally, seen = harness.Tally(), {}
    harness.setup(w, None, tally, seen)
    (w.workdir / "table.csv").write_bytes(b"theta_n,phi_n,rot_0\n1,2,\xff\n")
    harness.run_pass(w, None, tally, seen)
    assert (tally.attempted, tally.failed) == (3, 2)  # setup ok; train and predict fail


def test_a_wrong_number_in_a_derived_output_is_caught(tmp_path):
    w = small("campaign", 0, tmp_path)
    one_pass(w)
    smoothed = w.workdir / "smooth" / "smoothed.csv"
    out = next(o for c in w.commands for o in c.outputs if o.derived == "smoothed")
    assert checks.check_output(w, out, None)[1] == []
    lines = smoothed.read_text().splitlines()
    cells = lines[5].split(",")
    cells[10] = "%.6f" % (float(cells[10]) + 3e-6)
    lines[5] = ",".join(cells)
    smoothed.write_text("\n".join(lines) + "\n")
    assert "max |diff|" in checks.check_output(w, out, None)[1][0]


def test_seed_changes_the_noisy_table_but_not_the_codebook(tmp_path):
    _, first = one_pass(small("campaign", 1, tmp_path / "a"))
    _, second = one_pass(small("campaign", 2, tmp_path / "b"))
    assert first["codebook.csv"] == second["codebook.csv"]
    assert first["beampattern.csv"] != second["beampattern.csv"]


class SlowingProbe:
    """Stands in for SpeedProbe: each sample reads 1 ms slower than the last."""

    def __init__(self):
        self.samples = []

    def sample(self, after_seconds=0.0):
        self.samples.append(0.001 * (len(self.samples) + 1))
        return self.samples[-1]


def test_a_pass_is_calibrated_by_the_mean_of_its_probe_samples(tmp_path):
    w = small("surrogate", 0, tmp_path)
    tally, seen = harness.Tally(), {}
    harness.setup(w, None, tally, seen)
    probe = SlowingProbe()
    probe.sample()                                  # taken before the pass
    p = harness.run_pass(w, None, tally, seen, probe=probe)
    assert probe.samples == [0.001, 0.002, 0.003, 0.004]
    want = p["times"]["pass"] * speed.REFERENCE_S / 0.003
    assert p["times"]["calibrated_pass"] == pytest.approx(want)


def test_summarize_reports_the_highest_percentile_with_ten_samples_beyond():
    assert harness.summarize(range(10)) == {"median": 4.5, "n": 10}
    assert harness.summarize(range(11))["p9"] == 0
    assert harness.summarize(range(20))["p50"] == 9
    s = harness.summarize(range(100))
    assert s["p90"] == 89 and s["median"] == 49.5 and s["n"] == 100


def test_benchmark_json_lists_what_run_py_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.RESULT_METRICS)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.metric_units()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
