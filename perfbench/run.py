#!/usr/bin/env python3
"""Benchmark of the risbeam CLI flows.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 35 --trace 0

Runs one workload (campaign, surrogate, large_array) as a closed loop of CLI
passes in this process for about ``--seconds`` seconds, checks every output,
and prints a report followed by one JSON result line.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` wraps the program's public functions
and reports the per-layer metrics instead.  Run it from a source checkout:
it imports ``risbeam`` from ``src/`` next to this directory and writes only
under ``.perfbench_work/`` there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_SAMPLES = 9
SETUP_TIMEOUT_S = 120
# One BLAS thread: numpy's default of one per core makes timings depend on
# the core count and on whatever else runs beside the benchmark.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {"setup_s": "s", "measured_setup_s": "s", "pass_s": "s",
             "calibrated_pass_s": "s", "codebook_s": "s", "simulate_s": "s",
             "simulate_absorption_s": "s", "analyze_s": "s", "train_s": "s",
             "predict_s": "s", "peak_rss_mb": "MB", "error_rate": "ratio"}
# The end-to-end metrics every workload has; BENCHMARK.json lists these.
RESULT_METRICS = ("setup_s", "calibrated_pass_s", "peak_rss_mb")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("campaign", "surrogate", "large_array"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR",
                   help="internal: set up once into DIR and print the time when done")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def bootstrap() -> None:
    """Pin BLAS threads and import risbeam from this checkout's src/ only."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "risbeam" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no risbeam sources at {src}; run from a source checkout")
    sys.path[:0] = [str(src), str(ROOT)]
    import risbeam
    if Path(risbeam.__file__).resolve().parent != src / "risbeam":
        raise SystemExit(f"perfbench: imported risbeam from {risbeam.__file__}, not {src}")


def setup_only(args) -> int:
    """Set up the workload in a fresh directory; print the wall clock when done."""
    from perfbench import harness, workloads
    w = workloads.build(args.workload, args.seed, Path(args.setup_only))
    tally = harness.Tally()
    harness.setup(w, None, tally, {})
    print(repr(time.time()))
    return 1 if tally.failed else 0


def time_setup(args, probe) -> tuple:
    """Setup seconds of SETUP_SAMPLES fresh interpreters, measured and calibrated.

    `probe` (a SpeedProbe) is sampled right before and right after each
    interpreter, and each sample is calibrated by those two probe medians.
    Also returns how many interpreters failed.
    """
    from perfbench.speed import calibrate
    samples, calibrated, failed = [], [], 0
    for i in range(SETUP_SAMPLES):
        before = probe.sample()
        d = WORK / f"{args.workload}-setup{i}"
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                "--seed", str(args.seed), "--setup-only", str(d)]
        t0 = time.time()
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                                  timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:   # the child is killed and reaped
            proc = None
        after = probe.sample()
        shutil.rmtree(d, ignore_errors=True)
        if proc is not None and proc.returncode == 0:
            samples.append(float(proc.stdout.split()[-1]) - t0)
            calibrated.append(calibrate(samples[-1], [before, after]))
        else:
            failed += 1
    return samples, calibrated, failed


def print_report(report: dict) -> None:
    print(f"perfbench {report['workload']} seed={report['seed']} trace={report['trace']}")
    for when in ("start", "end"):
        print(f"  machine at {when}: {json.dumps(report['machine'][when])}")
    # setup_s is the calibrated setup time, as in the JSON result.
    rows = dict(report["timings"], measured_setup_s=report["setup"],
                setup_s=report["calibrated_setup"])
    for name, s in sorted(rows.items()):
        extra = " ".join(f"{k}={v:.6g}" for k, v in s.items() if k.startswith("p"))
        print(f"  {name:24s} {s['median']:12.6f} {E2E_UNITS[name]:5s} n={s['n']} {extra}")
    print(f"  {'peak_rss_mb':24s} {report['peak_rss_mb']:12.3f} MB")
    print(f"  speed probe median {report['probe_s']['median']:.6f} s (n={report['probe_s']['n']}); "
          "setup_s and calibrated_pass_s are rescaled to the probe's reference speed")
    print(f"  {'error_rate':24s} {report['error_rate']:12.6f} ratio "
          f"({report['failed']}/{report['attempted']} commands)")
    if report["trace"]:
        print(f"  traced pass_s {report['traced_pass_s']['median']:.6f} s "
              f"n={report['traced_pass_s']['n']}: overhead {report['trace_overhead_s']:+.4f} s "
              f"per pass; traced outputs match untraced: "
              f"{report['traced_outputs_match_untraced']}")
    for note in report["failures"]:
        print(f"  FAILED {note}")


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap()
    if args.setup_only:
        return setup_only(args)
    from perfbench import checks, harness, speed, tracing, workloads

    start = harness.machine_info()
    # One probe for the whole run: freeing its 16 MB buffer would raise
    # malloc's mmap threshold and change the program's peak RSS.
    probe = speed.SpeedProbe()
    setup_samples, setup_calibrated, setup_failures = time_setup(args, probe)
    workdir = WORK / args.workload
    w = workloads.build(args.workload, args.seed, workdir)
    report = harness.run(w, args.seconds, checks.Refs(), trace=bool(args.trace),
                         spans_path=workdir / "spans.jsonl", probe=probe)
    report["machine"] = {"start": start, "end": harness.machine_info()}
    report["attempted"] += SETUP_SAMPLES
    report["failed"] += setup_failures
    report["error_rate"] = report["failed"] / report["attempted"]
    no_setup = {"median": 0.0, "n": 0}
    report["setup"] = harness.summarize(setup_samples) if setup_samples else no_setup
    report["calibrated_setup"] = (harness.summarize(setup_calibrated) if setup_calibrated
                                  else no_setup)
    (workdir / "report.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    print_report(report)

    if args.trace:
        units = tracing.metric_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in report["layers"].items()}
    else:
        values = {"setup_s": report["calibrated_setup"]["median"],
                  "calibrated_pass_s": report["timings"]["calibrated_pass_s"]["median"],
                  "peak_rss_mb": report["peak_rss_mb"]}
        metrics = {k: {"value": values[k], "unit": E2E_UNITS[k]} for k in RESULT_METRICS}
    correct = report["failed"] == 0 and report.get("traced_outputs_match_untraced", True)
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
