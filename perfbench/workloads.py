"""The three benchmark workloads, as CLI argv lists over generated inputs.

Each workload is a closed loop with one client: a *pass* runs its commands
in order through ``risbeam.cli.main`` and the next pass starts only when the
previous one has finished.  Inputs (INI files, and for ``surrogate`` the
swept table) are generated from the workload seed by ``prepare``; the
program sees nothing else.

Why each workload exists is recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("campaign", "surrogate", "large_array")

# Small enough that a surrogate pass takes about two seconds, large enough
# that the per-epoch time is measured over several epochs.
TRAIN_EPOCHS = 4


@dataclass(frozen=True)
class Output:
    """A file a command writes, with the parser that must read it back.

    ``kind`` is one of codebook, table, model, csv, svg.  ``derived`` names a
    reference recomputed by the benchmark from other, hash-checked outputs.
    """

    path: str
    kind: str
    derived: str | None = None


@dataclass(frozen=True)
class Command:
    group: str            # end-to-end metric the command's time adds to
    argv: tuple
    outputs: tuple = ()


@dataclass
class Workload:
    name: str
    seed: int
    workdir: Path
    inis: dict = field(default_factory=dict)      # file name -> INI sections
    ini_extra: dict | None = None
    setup: list = field(default_factory=list)     # Commands run once, untimed
    commands: list = field(default_factory=list)  # one pass

    def groups(self) -> list:
        return list(dict.fromkeys(c.group for c in self.commands))


def _write_ini(path: Path, sections: dict, extra: dict | None) -> None:
    merged = {name: dict(keys) for name, keys in sections.items()}
    for name, keys in (extra or {}).items():
        merged.setdefault(name, {}).update(keys)
    lines = []
    for name, keys in merged.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in keys.items())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def build(name: str, seed: int, workdir: Path, ini_extra: dict | None = None) -> Workload:
    """Describe workload `name`; writes nothing.

    ``ini_extra`` adds keys to every generated INI file.  The tests use it
    to shrink the beam grid; the benchmark itself never sets it.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    d = Path(workdir)
    w = Workload(name, seed, d, ini_extra=ini_extra)

    def p(rel: str) -> str:
        return str(d / rel)

    if name == "campaign":
        ini = p("campaign.ini")
        w.inis = {"campaign.ini": {"campaign": {"seed": seed}}}
        w.commands = [
            Command("codebook", ("codebook", "--config", ini, "--out", p("codebook.csv")),
                    (Output("codebook.csv", "codebook"),)),
            Command("simulate", ("simulate", "--config", ini, "--out", p("beampattern.csv")),
                    (Output("beampattern.csv", "table"),)),
            Command("simulate_absorption",
                    ("simulate", "--config", ini, "--dataset", "absorption",
                     "--out", p("absorption.csv")),
                    (Output("absorption.csv", "table"),)),
            Command("analyze",
                    ("analyze", p("beampattern.csv"), "--beam", "0,-3", "--smooth",
                     "--hpbw", "--svg", "--out-dir", p("smooth")),
                    (Output("smooth/smoothed.csv", "csv", derived="smoothed"),
                     Output("smooth/hpbw.csv", "csv"),
                     Output("smooth/beampattern.svg", "svg"))),
            Command("analyze",
                    ("analyze", p("beampattern.csv"), "--localize", "--out-dir", p("localize")),
                    (Output("localize/localization.csv", "csv"),)),
            Command("analyze",
                    ("analyze", p("beampattern.csv"), "--reconstruct", "--tilt", "-3",
                     "--out-dir", p("reconstruct")),
                    (Output("reconstruct/pattern3d.csv", "csv"),)),
            Command("analyze",
                    ("analyze", p("absorption.csv"), "--hpbw", "--fit", "--out-dir", p("fit")),
                    (Output("fit/hpbw.csv", "csv"), Output("fit/fit.csv", "csv"))),
        ]
    elif name == "surrogate":
        ini = p("quiet.ini")
        w.inis = {"quiet.ini": {"budget": {"sample_sigma_db": 0}}}
        w.setup = [
            Command("setup", ("simulate", "--config", ini, "--out", p("table.csv")),
                    (Output("table.csv", "table"),)),
        ]
        w.commands = [
            Command("train", ("train", p("table.csv"), "--out", p("model.txt"),
                              "--epochs", str(TRAIN_EPOCHS), "--seed", str(seed)),
                    (Output("model.txt", "model"),)),
            Command("predict", ("predict", p("model.txt"), "--at", "0,-3,0",
                                "--table", p("table.csv"), "--out", p("pred.csv")),
                    (Output("pred.csv", "csv", derived="pred"),)),
        ]
    else:
        # Deterministic: noise is off, so the seed reaches nothing.
        quiet = {"sample_sigma_db": 0}
        w.inis = {"a64.ini": {"array": {"nx": 64, "ny": 64}, "budget": quiet},
                  "k4096.ini": {"array": {"phase_count": 4096}, "budget": quiet}}
        for case in ("a64", "k4096"):
            ini = p(f"{case}.ini")
            w.commands += [
                Command("codebook", ("codebook", "--config", ini,
                                     "--out", p(f"{case}/codebook.csv")),
                        (Output(f"{case}/codebook.csv", "codebook"),)),
                Command("simulate", ("simulate", "--config", ini,
                                     "--out", p(f"{case}/beampattern.csv")),
                        (Output(f"{case}/beampattern.csv", "table"),)),
            ]
    return w


def prepare(workload: Workload) -> None:
    """Write the workload's INI files into a fresh work directory."""
    d = workload.workdir
    if d.exists():
        shutil.rmtree(d)
    d.mkdir(parents=True)
    for rel, sections in workload.inis.items():
        _write_ini(d / rel, sections, workload.ini_extra)
    for c in workload.commands + workload.setup:
        for out in c.outputs:
            (d / out.path).parent.mkdir(parents=True, exist_ok=True)
