"""Train the beam-table surrogate on a synthetic campaign.

Sweeps the default codebook without noise, flattens the table to
(azimuth, elevation, rotation) -> power records, trains the small MLP, and
reports train/validation NMSE along with the per-epoch loss curve.

    python3 scripts/train_surrogate.py --epochs 750 --out out/surrogate
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from risbeam.array_model import ArraySpec
from risbeam.chamber import ChamberGeometry, LinkBudget, sweep_beampattern
from risbeam.codebook import CodebookGrid, build_codebook
from risbeam.surrogate import TrainSpec, flatten_table, save_model, train
from risbeam.svgplot import line_plot


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="out/surrogate", type=Path)
    parser.add_argument("--epochs", default=TrainSpec.epochs, type=int)
    parser.add_argument("--learning-rate", default=TrainSpec.learning_rate,
                        type=float)
    parser.add_argument("--seed", default=TrainSpec.seed, type=int)
    parser.add_argument("--sigma", default=0.0, type=float,
                        help="campaign noise sigma in dB (0 = noise-free)")
    args = parser.parse_args(argv)

    spec = ArraySpec(10, 10)
    geometry = ChamberGeometry()
    budget = LinkBudget(sample_sigma_db=args.sigma)
    codebook = build_codebook(spec, geometry.tx_dir, CodebookGrid())
    table = sweep_beampattern(codebook, geometry, budget, seed=0)
    records = flatten_table(table)
    print(f"{records.shape[0]} records from {len(codebook)} beams x "
          f"{table.rotations.size} rotations")

    train_spec = TrainSpec(epochs=args.epochs,
                           learning_rate=args.learning_rate, seed=args.seed)
    losses: list[float] = []
    t0 = time.perf_counter()
    model, train_nmse, val_nmse = train(records, train_spec=train_spec,
                                        epoch_loss_out=losses)
    wall = time.perf_counter() - t0
    print(f"trained {args.epochs} epochs in {wall:.1f}s")
    print(f"train NMSE {train_nmse:.6f}  val NMSE {val_nmse:.6f}")

    save_model(model, args.out / "model.txt")
    if len(losses) < 2:  # a curve needs two points
        print(f"wrote {args.out}/model.txt; no loss curve for "
              f"{len(losses)} epoch(s)")
        return 0
    epochs = np.arange(1, len(losses) + 1, dtype=float)
    line_plot([(epochs, np.log10(np.asarray(losses)), "training loss")],
              args.out / "loss_curve.svg",
              title="normalized-space MSE per epoch (log10)",
              x_label="epoch", y_label="log10 loss")
    print(f"wrote {args.out}/model.txt and loss_curve.svg")
    return 0


if __name__ == "__main__":
    sys.exit(main())
