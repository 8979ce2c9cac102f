"""Monte-Carlo study of turntable-angle recovery from noisy sweeps.

For each seed the full codebook is swept with the chamber noise model and the
rotation of every column is estimated as the argmax beam azimuth.  Reports
the per-seed hit count (out of 61 columns, within one grid step) and the
noise-free baseline; these numbers back the localization acceptance test.

    python3 scripts/localization_study.py --seeds 20 --tolerance 3
"""

import argparse
import sys

import numpy as np

from risbeam.analysis import localization_success_rate
from risbeam.array_model import ArraySpec, uniform_phase_set
from risbeam.chamber import ChamberGeometry, LinkBudget, sweep_beampattern
from risbeam.codebook import CodebookGrid, build_codebook


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default=20, type=int,
                        help="number of noisy sweeps")
    parser.add_argument("--tolerance", default=3.0, type=float,
                        help="azimuth tolerance in degrees")
    parser.add_argument("--sigma", default=LinkBudget.sample_sigma_db,
                        type=float, help="per-sample noise sigma in dB")
    parser.add_argument("--samples", default=LinkBudget.samples_per_point,
                        type=int,
                        help="averaged samples per measurement point")
    args = parser.parse_args(argv)

    spec = ArraySpec(10, 10)
    geometry = ChamberGeometry()
    codebook = build_codebook(spec, geometry.tx_dir, CodebookGrid())
    columns = geometry.rotations().size

    quiet = sweep_beampattern(codebook, geometry,
                              LinkBudget(sample_sigma_db=0.0), seed=0)
    for tol in (0.0, args.tolerance):
        rate = localization_success_rate(quiet, codebook, tolerance_deg=tol)
        print(f"noise-free, tolerance {tol:g}: "
              f"{round(rate * columns)}/{columns} ({rate:.6f})")

    # effectively continuous phases: the noise-free ceiling
    dense = ArraySpec(10, 10, phase_set=uniform_phase_set(4096))
    dense_cb = build_codebook(dense, geometry.tx_dir, CodebookGrid())
    dense_table = sweep_beampattern(dense_cb, geometry,
                                    LinkBudget(sample_sigma_db=0.0), seed=0)
    rate = localization_success_rate(dense_table, dense_cb, tolerance_deg=0.0)
    print(f"noise-free dense phases, tolerance 0: {rate:.6f}")

    budget = LinkBudget(sample_sigma_db=args.sigma,
                        samples_per_point=args.samples)
    rates = []
    for seed in range(args.seeds):
        table = sweep_beampattern(codebook, geometry, budget, seed=seed)
        rate = localization_success_rate(table, codebook,
                                         tolerance_deg=args.tolerance)
        rates.append(rate)
        print(f"seed {seed:2d}: {round(rate * columns)}/{columns} "
              f"({rate:.6f})")

    print(f"min {min(rates):.6f}  mean {np.mean(rates):.6f}  "
          f"max {max(rates):.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
