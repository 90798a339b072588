"""Reproducible experiment drivers: embedding-by-model grid, label-fraction
sweep, and the pose-imitation noise table."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .data import Dataset, split_leave_one_out
from .embedding import IncrementalPca, encode_array
from .imitation import DECODER_EPOCHS, DECODER_HIDDEN, DECODER_W_POS
from .imitation import encode_once, eval_pose, train_pose_decoder
from .pipeline import (
    SEQ_MODELS,
    PipelineConfig,
    evaluate_segmentation,
    pretrain_encoder,
    run_alternation,
    train_sequence_model,
    train_val_split,
)

GRID_ROWS = ("ipca", "svtcn", "raw", "npairs", "triplet", "triplet_svtcn")
_ROW_LOSS = {"svtcn": "svtcn", "npairs": "npairs", "triplet": "triplet", "triplet_svtcn": "triplet_tcn"}


def make_embed_fn(row: str, train_dataset: Dataset, config: PipelineConfig, seed: int):
    """Per-frame feature map for one grid row: raw passthrough, iPCA, or a
    freshly trained encoder with the row's loss."""
    if row == "raw":
        return lambda F: np.atleast_2d(np.asarray(F, dtype=np.float64))
    if row == "ipca":
        dim = min(config.embed_dim, train_dataset.feature_width)
        ipca = IncrementalPca(dim)
        frames = np.vstack([d.features for d in train_dataset.demos])
        for s in range(0, frames.shape[0], 256):
            ipca.partial_fit(frames[s : s + 256])
        return ipca.transform
    enc, _ = pretrain_encoder(train_dataset, replace(config, loss_mode=_ROW_LOSS[row]), seed)
    return lambda F: encode_array(enc, F)


def grid_eval(dataset: Dataset, config: PipelineConfig, seeds, rows=GRID_ROWS, cols=SEQ_MODELS) -> dict:
    """Mean held-out accuracy per (row, column) cell over the given seeds."""
    seeds = list(seeds)
    sums = {(r, c): 0.0 for r in rows for c in cols}
    for seed in seeds:
        train, test = split_leave_one_out(dataset, config.val_index)
        for row in rows:
            rng = np.random.default_rng([int(seed), GRID_ROWS.index(row)])
            embed_fn = make_embed_fn(row, train, config, seed=int(rng.integers(2**32)))
            for col in cols:
                bundle = train_sequence_model(
                    embed_fn, train, config, seed=int(rng.integers(2**32)), kind=col
                )
                sums[(row, col)] += evaluate_segmentation(embed_fn, bundle, test.demos)
    return {cell: total / len(seeds) for cell, total in sums.items()}


def fraction_sweep(dataset: Dataset, fractions, config: PipelineConfig, seeds) -> list[dict]:
    """Semi-supervised triplet+RNN vs unsupervised-embedding svTCN+RNN.

    Returns one record per fraction with per-method mean accuracy over seeds.
    """
    records = []
    svtcn = {}  # seed -> embed_fn: svTCN reads no labels, so one encoder serves every fraction
    for fraction in fractions:
        accs = {"triplet_rnn_ss": [], "svtcn_rnn": []}
        for seed in seeds:
            cfg = replace(
                config, labeled_fraction=float(fraction), seed=int(seed),
                loss_mode="triplet", seq_model="rnn",
            )
            _, _, trace = run_alternation(dataset, cfg)
            accs["triplet_rnn_ss"].append(trace[-1].val_acc)

            train, val = train_val_split(dataset, cfg)
            rng = np.random.default_rng([int(seed), 10_007])
            encoder_seed = int(rng.integers(2**32))  # drawn at every fraction: the RNN seed follows it
            if seed not in svtcn:
                svtcn[seed] = make_embed_fn("svtcn", train, cfg, seed=encoder_seed)
            embed_fn = svtcn[seed]
            bundle = train_sequence_model(
                embed_fn, train, cfg, seed=int(rng.integers(2**32)), kind="rnn"
            )
            accs["svtcn_rnn"].append(evaluate_segmentation(embed_fn, bundle, val.demos))
        records.append(
            {
                "fraction": float(fraction),
                "triplet_rnn_ss": float(np.mean(accs["triplet_rnn_ss"])),
                "svtcn_rnn": float(np.mean(accs["svtcn_rnn"])),
                "seeds": len(list(seeds)),
            }
        )
    return records


def pose_table(
    dataset: Dataset,
    config: PipelineConfig,
    noise_sigmas=(0.0, 0.15),
    seed: int = 0,
    decoder_hidden=DECODER_HIDDEN,
    decoder_epochs: int = DECODER_EPOCHS,
    w_pos: float = DECODER_W_POS,
):
    """Pose metrics for pooled and per-demonstrator decoders across noise levels.

    Returns (rows, encoder, decoders) so callers can reuse the trained models.
    """
    from .pipeline import pretrain_encoder  # call-time lookup: sees a wrapped pretrain_encoder

    train, test = split_leave_one_out(dataset, config.val_index)
    rng = np.random.default_rng(seed)
    cfg = replace(config, seed=seed)
    encoder, _ = pretrain_encoder(train, cfg, seed=int(rng.integers(2**32)))
    embed = encode_once(encoder)  # each training demo once; held-out ones once per sigma
    decoders = {
        "pooled": train_pose_decoder(
            embed, train.demos, scope="pooled", epochs=decoder_epochs,
            seed=int(rng.integers(2**32)), hidden=decoder_hidden, w_pos=w_pos,
        ),
        "per_demonstrator": train_pose_decoder(
            embed, train.demos, scope="per_demonstrator", epochs=decoder_epochs,
            seed=int(rng.integers(2**32)), hidden=decoder_hidden, w_pos=w_pos,
        ),
    }
    rows = []
    for scope, dec in decoders.items():
        for sigma in noise_sigmas:
            metrics = eval_pose(dec, embed, test.demos, noise_sigma=float(sigma), seed=seed)
            rows.append({"scope": scope, "noise_sigma": float(sigma), **metrics})
    return rows, encoder, decoders
