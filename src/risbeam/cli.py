"""Command-line surface: codebook export, sweep simulation, analysis, surrogate.

Exit codes: 0 success, 1 runtime or analysis failure (unreadable data,
truncated lobe, diverged fit, bad model file), 2 usage or config mistakes.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

import numpy as np

from . import analysis, surrogate, svgplot
from .array_model import Direction
from .chamber import sweep_absorption, sweep_beampattern
from .codebook import build_codebook, write_codebook
from .config import CampaignConfig, load_campaign_config
from .datasets import (
    AbsorptionTable,
    BeampatternTable,
    _fmt_angle,
    _power_rows,
    _write_lines,
    load_column_mapping,
    read_table,
    write_absorption,
    write_beampattern,
)
from .errors import ConfigError, DomainError, NotFoundError, RisbeamError

__all__ = ["main"]

_RUNTIME_ERRORS = (RisbeamError, OSError, MemoryError)


def _message(exc: Exception) -> str:
    # a bare MemoryError has no message
    return str(exc) or type(exc).__name__


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    _write_lines(path, (",".join(str(v) for v in line)
                        for line in [header, *rows]))


def _out_path(config: CampaignConfig, explicit, default_name: str) -> Path:
    if explicit:
        return Path(explicit)
    return config.output_dir / default_name


def _cmd_codebook(args) -> int:
    config = load_campaign_config(args.config)
    codebook = build_codebook(config.array, config.geometry.tx_dir, config.grid,
                              config.mode)
    path = _out_path(config, args.out, "codebook.csv")
    write_codebook(codebook, path)
    print(f"{len(codebook)} entries")
    print(f"wrote {path}")
    return 0


def _cmd_simulate(args) -> int:
    config = load_campaign_config(args.config)
    codebook = build_codebook(config.array, config.geometry.tx_dir, config.grid,
                              config.mode)
    sweep, write = ((sweep_beampattern, write_beampattern)
                    if args.dataset == "beampattern"
                    else (sweep_absorption, write_absorption))
    table = sweep(config.array, codebook, config.geometry, config.budget,
                  seed=config.seed)
    path = _out_path(config, args.out, f"{args.dataset}.csv")
    write(table, path)
    shape = table.power_dbm.shape
    print(f"{shape[0]} rows x {shape[1]} columns")
    print(f"wrote {path}")
    return 0


def _parse_point(text: str, form: str) -> tuple:
    """One finite number per comma-separated field of `form` ('AZ,EL')."""
    parts = text.split(",")
    try:
        values = tuple(float(p) for p in parts)
    except ValueError:
        values = ()
    if len(values) != form.count(",") + 1 or not np.all(np.isfinite(values)):
        raise argparse.ArgumentTypeError(
            f"want {form!r} as finite numbers, got {text!r}")
    return values


def _parse_seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(
            f"want a non-negative integer, got {text!r}")
    return seed


def _parse_beam(text: str) -> tuple:
    point = _parse_point(text, "AZ,EL")
    Direction(*point)  # the angle range check
    return point


def _run_steps(steps) -> int:
    """Run each step in order.  A step that fails is reported on stderr
    under its name and the later steps still run, so the files of the steps
    that worked stay; 1 if any step failed, else 0."""
    status = 0
    for step in steps:
        try:
            step()
        except _RUNTIME_ERRORS as exc:
            print(f"error: {step.__name__}: {_message(exc)}", file=sys.stderr)
            status = 1
    return status


def _analyze_beampattern(args, table: BeampatternTable, outdir: Path) -> list:
    if args.fit:
        raise DomainError("--fit needs an absorption table "
                          "(half-power width vs subarray side)")
    sg = analysis.SgFilterSpec(window=args.sg_window, order=args.sg_order)
    # the strongest row by default, keyed by the table's own labels
    key = args.beam or tuple(
        table.beams[np.argmax(table.power_dbm.max(axis=1))].tolist())
    label = "beam (%g, %g)" % key
    smoothed = []  # the smoothed table, once that step has worked

    def smooth():
        result = BeampatternTable(
            table.beams, table.rotations,
            analysis.savitzky_golay(table.power_dbm, sg), table.theta_t_deg)
        out = outdir / "smoothed.csv"
        write_beampattern(result, out)
        print(f"smooth: wrote {out}")
        smoothed.append(result)

    def hpbw():
        width = analysis.hpbw(*table.row(key))
        out = outdir / "hpbw.csv"
        _write_csv(out, ["beam_azimuth_deg", "beam_elevation_deg", "hpbw_deg"],
                   [[_fmt_angle(key[0]), _fmt_angle(key[1]), "%.6f" % width]])
        print(f"hpbw: {width:.4f} deg for {label} -> {out}")

    def localize():
        estimates = analysis.localize_aoa(table)
        out = outdir / "localization.csv"
        _write_csv(
            out,
            ["theta_r", "theta_n_hat", "phi_n_hat", "row"],
            [[_fmt_angle(e.rotation_deg), _fmt_angle(e.azimuth_deg),
              _fmt_angle(e.elevation_deg), e.row] for e in estimates],
        )
        exact = sum(1 for e in estimates if e.azimuth_deg == e.rotation_deg)
        print(f"localize: {exact}/{len(estimates)} columns with "
              f"matching azimuth label -> {out}")

    def reconstruct():
        pattern = analysis.hpi_reconstruct(*table.row(key), args.tilt)
        out = outdir / "pattern3d.csv"
        _write_csv(
            out,
            ["azimuth_deg"] + ["el_" + _fmt_angle(e)
                               for e in pattern.elevation_deg],
            [[_fmt_angle(a), text] for a, text in
             zip(pattern.azimuth_deg, _power_rows(pattern.power_dbm))],
        )
        print(f"reconstruct: {pattern.power_dbm.shape[0]}x"
              f"{pattern.power_dbm.shape[1]} grid at tilt {args.tilt:g} -> {out}")

    def svg():
        angles, cut = table.row(key)
        series = [(angles, cut, label)] + [
            (angles, s.row(key).values, "smoothed") for s in smoothed]
        out = outdir / "beampattern.svg"
        svgplot.line_plot(series, out, title="Reflection pattern",
                          x_label="rotation (deg)", y_label="RSRP (dBm)")
        print(f"svg: wrote {out}")

    return [step for flag, step in (
        (args.smooth, smooth), (args.hpbw, hpbw), (args.localize, localize),
        (args.reconstruct, reconstruct), (args.svg, svg)) if flag]


def _analyze_absorption(args, table: AbsorptionTable, outdir: Path) -> list:
    if args.smooth or args.localize or args.reconstruct:
        raise DomainError(
            "smooth/localize/reconstruct need a beampattern table"
        )
    elevation = args.elevation
    sel = table.beams[:, 1] == elevation
    if not np.any(sel):
        raise NotFoundError(f"no beams at elevation {elevation:g} in table")
    order = np.argsort(table.beams[sel, 0])
    azimuths = table.beams[sel, 0][order]

    # every step needs the widths, so a width that fails fails them all
    widths = []
    for j in range(table.active_counts.size):
        widths.append(analysis.hpbw(azimuths, table.power_dbm[sel, j][order]))
    sides = np.sqrt(table.active_counts.astype(float))

    def hpbw():
        out = outdir / "hpbw.csv"
        _write_csv(out, ["side", "active_count", "hpbw_deg"],
                   [[_fmt_angle(s), _fmt_angle(n), "%.6f" % w]
                    for s, n, w in zip(sides, table.active_counts, widths)])
        print("hpbw:", ", ".join("n=%d -> %.3f deg" % (n, w)
                                 for n, w in zip(table.active_counts, widths)))
        print(f"hpbw: wrote {out}")

    def fit():
        res = analysis.fit_exponential(sides, np.asarray(widths))
        out = outdir / "fit.csv"
        _write_csv(out, ["a", "b", "c", "residual_norm", "iterations"],
                   [["%.10g" % res.a, "%.10g" % res.b, "%.10g" % res.c,
                     "%.10g" % res.residual_norm, res.iterations]])
        print(f"fit: a={res.a:.4f} b={res.b:.4f} c={res.c:.4f} "
              f"residual={res.residual_norm:.4g} -> {out}")

    def svg():
        out = outdir / "hpbw.svg"
        svgplot.line_plot(
            [(sides, np.asarray(widths), "half-power width")],
            out, title="Beamwidth vs active side", x_label="side length",
            y_label="HPBW (deg)",
        )
        print(f"svg: wrote {out}")

    return [step for flag, step in (
        (args.hpbw or args.fit, hpbw), (args.fit, fit), (args.svg, svg))
        if flag]


def _cmd_analyze(args) -> int:
    if not (args.smooth or args.hpbw or args.fit or args.localize
            or args.reconstruct or args.svg):
        print("analyze: pick at least one of --smooth --hpbw --fit "
              "--localize --reconstruct --svg", file=sys.stderr)
        return 2
    if args.reconstruct and args.tilt is None:
        print("analyze: --reconstruct needs --tilt", file=sys.stderr)
        return 2
    mapping = load_column_mapping(args.mapping) if args.mapping else None
    table = read_table(args.table, mapping)
    outdir = Path(args.out_dir) if args.out_dir else Path(args.table).parent
    outdir.mkdir(parents=True, exist_ok=True)
    plan = (_analyze_beampattern if isinstance(table, BeampatternTable)
            else _analyze_absorption)
    return _run_steps(plan(args, table, outdir))


def _cmd_train(args) -> int:
    mapping = load_column_mapping(args.mapping) if args.mapping else None
    records = surrogate.flatten_table(read_table(args.table, mapping))
    train_spec = surrogate.TrainSpec(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        split_fraction=args.split_fraction,
        seed=args.seed,
    )
    model, train_nmse, val_nmse = surrogate.train(
        records, surrogate.MlpSpec(), train_spec
    )
    out = Path(args.out)
    surrogate.save_model(model, out)
    print(f"train NMSE {train_nmse * 100:.4f}%  val NMSE {val_nmse * 100:.4f}%")
    print(f"wrote {out}")
    return 0


def _prediction_lines(at, table, predictions, line_format: str):
    """`line_format % ("AZ,EL,", "ROT", power)` per prediction, in input order.

    The --at points come first, then the table beam by rotation; each beam
    prefix and rotation label is formatted once.
    """
    powers = iter(predictions.tolist())
    # zip draws from the labels first, so it stops without taking a power
    # that belongs to the next group
    for (a, e, r), p in zip(at.tolist(), powers):
        yield line_format % (_fmt_angle(a) + "," + _fmt_angle(e) + ",",
                             _fmt_angle(r), p)
    if table is None:
        return
    labels = [_fmt_angle(r) for r in table.rotations.tolist()]
    for a, e in table.beams.tolist():
        prefix = _fmt_angle(a) + "," + _fmt_angle(e) + ","
        for label, p in zip(labels, powers):
            yield line_format % (prefix, label, p)


def _cmd_predict(args) -> int:
    model = surrogate.load_model(args.model)
    inputs = at = np.array(args.at or [], dtype=float).reshape(-1, 3)
    table = None
    if args.table:
        table = read_table(args.table)
        inputs = np.concatenate([at, surrogate.flatten_table(table)[:, :3]])
    if not inputs.shape[0]:
        print("predict: give --at AZ,EL,ROT (repeatable) and/or --table",
              file=sys.stderr)
        return 2
    predictions = model.predict_batch(inputs)
    if args.out:
        out = Path(args.out)
        _write_lines(out, itertools.chain(
            ["theta_n,phi_n,theta_r,rsrp_dbm_pred"],
            _prediction_lines(at, table, predictions, "%s%s,%.6f")))
        print(f"wrote {out}")
    else:
        for line in _prediction_lines(at, table, predictions,
                                      "%s%s -> %.6f dBm"):
            print(line)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risbeam",
        description="Beam-steering measurement campaigns on a desk: codebooks, "
                    "sweeps, analysis, and a learned surrogate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("codebook", help="build and export the codebook")
    p.add_argument("--config", help="campaign INI file")
    p.add_argument("--out", help="output CSV path")
    p.set_defaults(func=_cmd_codebook)

    p = sub.add_parser("simulate", help="run a sweep and write the dataset")
    p.add_argument("--config", help="campaign INI file")
    p.add_argument("--dataset", choices=("beampattern", "absorption"),
                   default="beampattern")
    p.add_argument("--out", help="output CSV path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("analyze", help="run analyses on a dataset table")
    p.add_argument("table", help="dataset CSV")
    p.add_argument("--mapping", help="column-name mapping file")
    p.add_argument("--smooth", action="store_true")
    p.add_argument("--hpbw", action="store_true")
    p.add_argument("--fit", action="store_true")
    p.add_argument("--localize", action="store_true")
    p.add_argument("--reconstruct", action="store_true")
    p.add_argument("--tilt", type=float, help="pattern peak elevation (deg)")
    p.add_argument("--beam", type=_parse_beam,
                   help="beam row as 'AZ,EL' (default: strongest row); "
                        "a negative AZ needs the = form, --beam=-45,-3")
    p.add_argument("--elevation", type=float, default=-3.0,
                   help="elevation slice for absorption widths")
    p.add_argument("--sg-window", type=int,
                   default=analysis.SgFilterSpec.window)
    p.add_argument("--sg-order", type=int,
                   default=analysis.SgFilterSpec.order)
    p.add_argument("--out-dir", help="where analysis CSVs go")
    p.add_argument("--svg", action="store_true", help="also render SVG plots")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("train", help="fit the MLP surrogate to a table")
    p.add_argument("table", help="beampattern CSV")
    p.add_argument("--mapping", help="column-name mapping file")
    p.add_argument("--out", required=True, help="model file path")
    defaults = surrogate.TrainSpec
    p.add_argument("--epochs", type=int, default=defaults.epochs)
    p.add_argument("--batch-size", type=int, default=defaults.batch_size)
    p.add_argument("--learning-rate", type=float,
                   default=defaults.learning_rate)
    p.add_argument("--split-fraction", type=float,
                   default=defaults.split_fraction)
    p.add_argument("--seed", type=_parse_seed, default=defaults.seed)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="evaluate a saved surrogate model")
    p.add_argument("model", help="model file from train")
    p.add_argument("--at", action="append",
                   type=lambda text: _parse_point(text, "AZ,EL,ROT"),
                   help="point as 'AZ,EL,ROT' (repeatable); a negative AZ "
                        "needs the = form, --at=-10,0,0")
    p.add_argument("--table", help="predict at every cell of this table")
    p.add_argument("--out", help="predictions CSV")
    p.set_defaults(func=_cmd_predict)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _RUNTIME_ERRORS as exc:
        print(f"error: {_message(exc)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
