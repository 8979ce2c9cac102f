"""Closed-loop harness: set up a workload, run passes for a fixed time, check.

A pass runs the workload's commands in order through ``risbeam.cli.main``
in this process.  Only the CLI calls are timed; output checks run between
them.  Failures of any kind (non-zero exit, an exception, an output that
fails its check) are counted and never stop the run.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import platform
import resource
import statistics
import traceback
from time import perf_counter

import numpy as np
from risbeam import cli

from . import checks, speed, tracing, workloads

# A run always measures at least this many passes, so every timing is a
# median of several samples even when one pass is long (large_array).
MIN_PASSES = 4
MAX_FAILURE_NOTES = 20


class Tally:
    """Commands attempted and failed, with the first few failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.notes) < MAX_FAILURE_NOTES:
                self.notes.append(f"{label}: " + "; ".join(problems))


def machine_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def run_command(argv) -> tuple:
    """(seconds, problems) for one in-process CLI call."""
    sink_out, sink_err = io.StringIO(), io.StringIO()
    problems = []
    with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
        t0 = perf_counter()
        try:
            rc = cli.main(list(argv))  # looked up per call: a traced pass wraps it
        except Exception:  # noqa: BLE001 - a crash is a counted failure
            rc = None
            problems.append("raised " + traceback.format_exc(limit=3).strip().splitlines()[-1])
        seconds = perf_counter() - t0
    if rc not in (0, None):
        err = sink_err.getvalue().strip().splitlines()
        problems.append(f"exit {rc}" + (f" ({err[-1]})" if err else ""))
    return seconds, problems


def check_command(workload, cmd, refs, seen: dict, digests: dict) -> list:
    """Problems with the outputs of `cmd`; records each output's sha256 in `digests`.

    The first time an output appears it is checked in full; afterwards it
    must be byte-identical to that first copy, and inherits its findings.
    """
    problems = []
    for out in cmd.outputs:
        path = workload.workdir / out.path
        if out.path in seen:
            digest = checks.sha256(path) if path.is_file() else None
            first, found = seen[out.path]
            if digest != first:
                problems.append(f"{out.path}: differs from its first copy")
                found = checks.check_output(workload, out, refs)[1]
        else:
            digest, found = checks.check_output(workload, out, refs)
            seen[out.path] = (digest, found)
        digests[out.path] = digest
        problems += found
    return problems


def setup(workload, refs, tally: Tally, seen: dict) -> None:
    """Write the inputs and run the setup commands (untimed, but checked)."""
    workloads.prepare(workload)
    for cmd in workload.setup:
        _, problems = run_command(cmd.argv)
        problems += check_command(workload, cmd, refs, seen, {})
        tally.add(f"setup {cmd.argv[0]}", problems)


def run_pass(workload, refs, tally: Tally, seen: dict, tracer=None, pass_id=0,
             probe=None) -> dict:
    """Run every command once, sampling `probe` (a SpeedProbe) before the
    first and after each.

    Returns the seconds of each command, per metric group and for the whole
    `pass`, and the sha256 of every output.
    """
    times = dict.fromkeys(workload.groups(), 0.0)
    commands, digests = [], {}
    if probe is not None:
        first = len(probe.samples)
        probe.sample()
    for cmd_id, cmd in enumerate(workload.commands):
        for out in cmd.outputs:
            (workload.workdir / out.path).unlink(missing_ok=True)
        if tracer is not None:
            tracer.pass_id, tracer.cmd_id = pass_id, cmd_id
        seconds, problems = run_command(cmd.argv)
        commands.append(seconds)
        times[cmd.group] += seconds
        problems += check_command(workload, cmd, refs, seen, digests)
        tally.add(f"pass {pass_id} {cmd.group} ({cmd.argv[0]})", problems)
        if probe is not None:
            probe.sample(seconds)
    times["pass"] = sum(commands)
    if probe is not None:
        # The host's speed can change from one second to the next, so the
        # mean of every sample taken over the pass tracks its average speed
        # better than the samples next to any one command.
        times["calibrated_pass"] = speed.calibrate(times["pass"], probe.samples[first:])
    return {"times": times, "commands": commands, "digests": digests}


def loop(workload, refs, tally, seen, seconds: float, probe, tracer=None) -> tuple:
    """Closed loop: start another pass while one more is expected to fit.

    With a `tracer`, every second pass runs traced, so traced and untraced
    passes see the same machine and their difference is the tracing cost.
    Returns the passes and the peak RSS after the first MIN_PASSES of them:
    the heap creeps up by about 1 MB a pass, so the peak at the end would
    depend on how many passes the machine's speed allowed.
    """
    end = perf_counter() + seconds
    walls, passes = [], []
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        t0 = perf_counter()
        with tracer if traced else contextlib.nullcontext():
            p = run_pass(workload, refs, tally, seen, tracer if traced else None,
                         len(passes), probe)
        walls.append(perf_counter() - t0)
        passes.append(dict(p, traced=traced))
        if len(passes) == MIN_PASSES:
            rss_mb = peak_rss_mb()
        if len(passes) >= MIN_PASSES and perf_counter() + statistics.median(walls) > end:
            return passes, rss_mb


def summarize(samples) -> dict:
    """Median, sample count, and the highest percentile with ten samples beyond it."""
    s = sorted(samples)
    n = len(s)
    out = {"median": statistics.median(s), "n": n}
    if n > 10:
        p = 100 * (n - 10) // n
        rank = max(1, math.ceil(p * n / 100))     # nearest-rank percentile
        out[f"p{p}"] = s[rank - 1]
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload, seconds: float, refs, trace: bool = False, spans_path=None,
        probe=None) -> dict:
    """Set up and measure one workload; returns the full report.

    Timings come from the untraced passes.  With `trace`, every second pass
    is traced; the per-layer metrics are medians over the traced passes.
    """
    tally, seen = Tally(), {}
    probe = probe or speed.SpeedProbe()
    setup(workload, refs, tally, seen)
    tracer = tracing.Tracer() if trace else None
    t0 = perf_counter()
    passes, rss_mb = loop(workload, refs, tally, seen, seconds, probe, tracer)
    plain = [p for p in passes if not p["traced"]]
    report = {"workload": workload.name, "seed": workload.seed, "trace": int(trace),
              "timings": {f"{g}_s": summarize([p["times"][g] for p in plain])
                          for g in plain[0]["times"]},
              "command_seconds": [p["commands"] for p in plain]}
    if trace:
        if spans_path is not None:
            tracer.write_jsonl(spans_path, t0)
        per_pass = [tracing.pass_metrics(s)
                    for _, s in sorted(tracing.group_by_pass(tracer.spans).items())]
        report["layers"] = {k: statistics.median(m[k] for m in per_pass)
                            for k in tracing.metric_units()}
        traced = [p for p in passes if p["traced"]]
        traced_s = summarize([p["times"]["pass"] for p in traced])
        report["traced_pass_s"] = traced_s
        report["trace_overhead_s"] = traced_s["median"] - report["timings"]["pass_s"]["median"]
        report["traced_outputs_match_untraced"] = all(
            p["digests"] == plain[0]["digests"] for p in traced)
    report.update(attempted=tally.attempted, failed=tally.failed,
                  error_rate=tally.failed / tally.attempted if tally.attempted else 1.0,
                  failures=tally.notes, peak_rss_mb=rss_mb,
                  probe_s=summarize(probe.samples))
    return report
