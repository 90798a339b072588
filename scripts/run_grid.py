#!/usr/bin/env python3
"""Full embedding-by-model accuracy grid on the default synthetic dataset.

Writes grid.csv (rows: embedding approach, columns: sequence models) with
cell means over the requested seeds.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from motionseg.cli import write_csv
from motionseg.data import SyntheticConfig, generate_synthetic
from motionseg.experiments import GRID_ROWS, grid_eval
from motionseg.pipeline import SEQ_MODELS, PipelineConfig


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="grid.csv")
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--embed-epochs", type=int, default=40)
    parser.add_argument("--rnn-hidden", type=int, default=32)
    parser.add_argument("--rnn-epochs", type=int, default=15)
    parser.add_argument("--em-iterations", type=int, default=10)
    parser.add_argument("--d-max", type=int, default=20)
    args = parser.parse_args()

    dataset = generate_synthetic(SyntheticConfig(seed=0))
    config = PipelineConfig(
        embed_dim=32, encoder_hidden=(256, 64), embed_epochs=args.embed_epochs,
        batch_size=128, rnn_hidden=args.rnn_hidden, rnn_epochs=args.rnn_epochs,
        rnn_lr=1e-2, stride=64, hmm_states=30, em_iterations=args.em_iterations,
        d_max=args.d_max, crf_iterations=50, seed=0,
    )
    cells = grid_eval(dataset, config, seeds=range(args.seeds))
    rows = [(r, *[cells[(r, c)] for c in SEQ_MODELS]) for r in GRID_ROWS]
    write_csv(args.out, ["embedding", *SEQ_MODELS], rows)
    for row in rows:
        print(row[0].ljust(14), " ".join(f"{v:.3f}" for v in row[1:]))


if __name__ == "__main__":
    main()
