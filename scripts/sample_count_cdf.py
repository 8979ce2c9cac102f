"""How many samples per measurement point are enough.

Draws repeated noisy readings of a constant true power and compares the
running mean after N samples against the mean of the full batch.  Prints the
90th-percentile relative error per count and writes the empirical CDFs as
CSV and SVG.

    python3 scripts/sample_count_cdf.py --trials 2000 --out out/samples
"""

import argparse
import sys
from pathlib import Path

from risbeam.chamber import LinkBudget, sample_count_study
from risbeam.datasets import _write_lines
from risbeam.svgplot import line_plot


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="out/samples", type=Path)
    parser.add_argument("--trials", default=2000, type=int)
    parser.add_argument("--sigma", default=LinkBudget.sample_sigma_db,
                        type=float)
    parser.add_argument("--true-dbm", default=-60.0, type=float)
    parser.add_argument("--counts", default="10,20,30,80",
                        help="comma-separated sample counts")
    parser.add_argument("--seed", default=0, type=int)
    args = parser.parse_args(argv)

    counts = tuple(int(c) for c in args.counts.split(","))
    study = sample_count_study(args.true_dbm, args.sigma, counts,
                               trials=args.trials, seed=args.seed)

    series = []
    lines = ["count,relative_error,cumulative_fraction"]
    for count in counts:
        errors, fractions = study.cdf(count)
        series.append((errors, fractions, f"{count} samples"))
        lines.extend(f"{count},{e:.9g},{p:.9g}" for e, p in zip(errors, fractions))
        print(f"count {count:3d}: p90 relative error "
              f"{study.percentile(count, 90):.6g}")
    _write_lines(args.out / "cdf.csv", lines)

    line_plot(series, args.out / "cdf.svg",
              title="relative averaging error vs sample count",
              x_label="relative error", y_label="cumulative fraction")
    print(f"wrote {args.out}/cdf.csv and cdf.svg")
    return 0


if __name__ == "__main__":
    sys.exit(main())
