"""The three benchmark workloads and the checks on their outputs.

Every workload drives motionseg only through public functions, looked up as
module attributes at call time so the traced run can wrap them:

- ``semi_rnn``: the paper's headline method, ``run_alternation`` with the
  triplet encoder and the BiLSTM at 25% labels, 3 rounds, early stop off so
  the work done never depends on accuracy.
- ``chain_labelers``: one triplet encoder, then k-NN, HMM, HSMM and CRF fitted
  and scored on the held-out demos, as in one row of ``eval --grid``.
- ``pose_imitate``: ``pose_table`` on the criterion-6 corpus, pooled and
  per-demonstrator decoders at noise 0 and 0.15, with a frozen encoder.

``semi_rnn`` uses the criterion-5 configuration (stride 56, 20 encoder epochs);
``pose_imitate`` the criterion-6 corpus with 60 decoder epochs;
``chain_labelers`` uses the criterion-4 model sizes with iteration counts cut.
Each job takes seconds, so its repeats (``job_repeats``) and the inference
sweep fit in one measured window. ``toy`` is the criterion-7 corpus shape, for smoke tests.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from motionseg import data, embedding, experiments, imitation, modelio, pipeline
from motionseg.pipeline import PipelineConfig, SegmenterBundle

CHAIN_KINDS = ("knn", "hmm", "hsmm", "crf")
QUAT_SLICES = (slice(3, 7), slice(11, 15))
# --seed draws the corpus; training always starts from this seed, so which
# demos keep their labels, and with them the work a job does, is the same for
# every corpus.
TRAIN_SEED = 0


class CheckFailed(Exception):
    """An output of the program broke one of the benchmark's checks."""


@dataclass
class JobResult:
    models: dict  # name -> model object that modelio can save
    quality: dict  # accuracies and pose errors, keyed by per-layer metric name
    state_maps: dict = field(default_factory=dict)


def _toy_synthetic(seed, **overrides):
    shape = dict(
        demonstrators=3, demos_per_demonstrator=3, num_classes=4, feature_width=24,
        mean_durations=5.0, cycles=2, style_scale=1.5, noise_sigma=0.4,
    )
    return data.SyntheticConfig(seed=seed, **{**shape, **overrides})


_TOY_PIPELINE = dict(
    top_k=30, stride=32, embed_dim=8, encoder_hidden=(32,), embed_epochs=6, batch_size=32,
    rnn_hidden=16, rnn_epochs=8, hmm_states=6, em_iterations=3, d_max=10,
    crf_iterations=10, pos_window=3, neg_window=8,
)


def check_labels(labels, conf, num_frames, num_classes):
    labels = np.asarray(labels)
    conf = np.asarray(conf, dtype=np.float64)
    if labels.shape != (num_frames,) or conf.shape != (num_frames,):
        raise CheckFailed(f"expected {num_frames} labels and confidences")
    if labels.min() < 1 or labels.max() > num_classes:
        raise CheckFailed(f"label outside 1..{num_classes}")
    if not np.all(np.isfinite(conf)) or conf.min() <= 0.0 or conf.max() > 1.0:
        raise CheckFailed("confidence not finite or outside (0, 1]")


def check_poses(poses, num_frames):
    poses = np.asarray(poses)
    if poses.shape != (num_frames, 16):
        raise CheckFailed(f"expected ({num_frames}, 16) poses")
    if not np.all(np.isfinite(poses)):
        raise CheckFailed("non-finite pose")
    for sl in QUAT_SLICES:
        if np.max(np.abs(np.linalg.norm(poses[:, sl], axis=1) - 1.0)) > 1e-9:
            raise CheckFailed("pose quaternion is not unit norm")


def check_quality(quality):
    for name, value in quality.items():
        if not math.isfinite(value):
            raise CheckFailed(f"{name} is not finite")
        if name.endswith("val_acc") and not 0.0 <= value <= 1.0:
            raise CheckFailed(f"{name}={value} outside [0, 1]")


def check_same_dataset(a, b):
    """A save/load round trip must give back every value bit for bit."""
    if len(a.demos) != len(b.demos) or a.num_classes != b.num_classes:
        raise CheckFailed("dataset shape changed in a save/load round trip")
    for x, y in zip(a.demos, b.demos):
        same = (x.demo_id, x.demonstrator_id, x.fps) == (y.demo_id, y.demonstrator_id, y.fps)
        if not same or not same_outputs(
            [x.features, x.labels, x.poses], [y.features, y.labels, y.poses]
        ):
            raise CheckFailed(f"demo {x.demo_id} changed in a save/load round trip")


def same_outputs(a, b) -> bool:
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


class SemiRnn:
    name = "semi_rnn"
    job_repeats = 2  # a job takes about 10 s; two of them fit in the window

    def __init__(self, scale):
        self.scale = scale

    def synthetic(self, seed):
        return data.SyntheticConfig(seed=seed) if self.scale == "full" else _toy_synthetic(seed)

    def config(self):
        common = dict(rounds=3, loss_mode="triplet", seq_model="rnn",
                      early_stop_tol=-math.inf, seed=TRAIN_SEED)
        if self.scale == "toy":
            return PipelineConfig(labeled_fraction=0.5, **common, **_TOY_PIPELINE)
        # stride 56, not 64: demos run 112-168 frames, so nearly every demo is
        # three windows, and neither the training work nor the per-demo latency
        # jumps with how many demos of a corpus cross 128 frames. 20 encoder
        # epochs (the default, not criterion 5's 30) leave the sweep ~10 s.
        return PipelineConfig(
            labeled_fraction=0.25, top_k=100, stride=56, embed_dim=32,
            encoder_hidden=(256, 64), embed_epochs=20, batch_size=128, rnn_hidden=32,
            rnn_epochs=15, rnn_lr=1e-2, **common,
        )

    def job(self, dataset) -> JobResult:
        encoder, bundle, trace = pipeline.run_alternation(dataset, self.config())
        if len(trace) != 3:
            raise CheckFailed(f"expected 3 rounds, got {len(trace)}")
        return JobResult(
            models={"encoder": encoder, "rnn": bundle.model},
            quality={"pipeline.val_acc": trace[-1].val_acc, "rnn.val_acc": trace[-1].val_acc},
        )

    def infer(self, models, state_maps, demo, num_classes):
        E = embedding.encode_array(models["encoder"], demo.features)
        labels, conf = pipeline.predict_frames(SegmenterBundle("rnn", models["rnn"]), E)
        check_labels(labels, conf, demo.num_frames, num_classes)
        return [labels, conf]


class ChainLabelers:
    name = "chain_labelers"
    job_repeats = 3

    def __init__(self, scale):
        self.scale = scale

    def synthetic(self, seed):
        # one grammar cycle per demo: 40 demos of ~66 frames, so two jobs and a
        # 200-call sweep of all four labelers fit in the measured window
        if self.scale == "full":
            return data.SyntheticConfig(cycles=1, seed=seed)
        return _toy_synthetic(seed, cycles=1)

    def config(self):
        if self.scale == "toy":
            return PipelineConfig(seed=TRAIN_SEED, **_TOY_PIPELINE)
        return PipelineConfig(
            embed_dim=32, encoder_hidden=(256, 64), embed_epochs=10, batch_size=128,
            hmm_states=30, em_iterations=3, d_max=20, crf_iterations=6, seed=TRAIN_SEED,
        )

    def job(self, dataset) -> JobResult:
        cfg = self.config()
        train, test = data.split_leave_one_out(dataset, cfg.val_index)
        rng = np.random.default_rng(TRAIN_SEED)
        encoder, _ = pipeline.pretrain_encoder(train, cfg, seed=int(rng.integers(2**32)))
        embed_fn = lambda F: embedding.encode_array(encoder, F)
        models, quality, state_maps = {"encoder": encoder}, {}, {}
        for kind in CHAIN_KINDS:
            bundle = pipeline.train_sequence_model(
                embed_fn, train, cfg, seed=int(rng.integers(2**32)), kind=kind
            )
            quality[f"{kind}.val_acc"] = pipeline.evaluate_segmentation(embed_fn, bundle, test.demos)
            models[kind] = bundle.model
            state_maps[kind] = bundle.state_map
        quality["pipeline.val_acc"] = float(np.mean([quality[f"{k}.val_acc"] for k in CHAIN_KINDS]))
        return JobResult(models=models, quality=quality, state_maps=state_maps)

    def infer(self, models, state_maps, demo, num_classes):
        E = embedding.encode_array(models["encoder"], demo.features)
        out = []
        for kind in CHAIN_KINDS:
            bundle = SegmenterBundle(kind, models[kind], state_map=state_maps.get(kind))
            labels, conf = pipeline.predict_frames(bundle, E)
            check_labels(labels, conf, demo.num_frames, num_classes)
            out += [labels, conf]
        return out


class PoseImitate:
    name = "pose_imitate"
    job_repeats = 3

    def __init__(self, scale):
        self.scale = scale

    def synthetic(self, seed):
        criterion_6 = dict(noise_sigma=0.15, pose_phase_amp_cm=0.4, proto_scale=1.5)
        if self.scale == "toy":
            return _toy_synthetic(seed, **criterion_6)
        return data.SyntheticConfig(seed=seed, **criterion_6)

    def config(self):
        if self.scale == "toy":
            return PipelineConfig(seed=TRAIN_SEED, **_TOY_PIPELINE)
        return PipelineConfig(
            embed_dim=32, encoder_hidden=(256, 64), embed_epochs=10, batch_size=128,
            seed=TRAIN_SEED,
        )

    def job(self, dataset) -> JobResult:
        rows, encoder, decoders = experiments.pose_table(
            dataset, self.config(), noise_sigmas=(0.0, 0.15), seed=TRAIN_SEED,
            decoder_hidden=(24, 12) if self.scale == "toy" else (64, 32),
            decoder_epochs=10 if self.scale == "toy" else 60,
        )
        row = next(r for r in rows if r["scope"] == "per_demonstrator" and r["noise_sigma"] == 0.0)
        models = {"encoder": encoder, "pooled": decoders["pooled"]}
        for dem, dec in decoders["per_demonstrator"].items():
            models[f"decoder.{dem}"] = dec
        return JobResult(
            models=models,
            quality={
                "imitation.rmse_position_cm": row["rmse_position_cm"],
                "imitation.quat_loss_median": row["median_cosine_quat_loss"],
            },
        )

    def infer(self, models, state_maps, demo, num_classes):
        E = embedding.encode_array(models["encoder"], demo.features)
        poses = imitation.decode_pose(models[f"decoder.{demo.demonstrator_id}"], E)
        check_poses(poses, demo.num_frames)
        return [poses]


WORKLOADS = {w.name: w for w in (SemiRnn, ChainLabelers, PoseImitate)}


def save_and_reload(models, work_dir):
    """Round-trip every model through modelio; returns (reloaded models, bytes written)."""
    reloaded, total = {}, 0
    for name, model in models.items():
        path = os.path.join(work_dir, f"{name}.model")
        modelio.save_model(model, path)
        total += os.path.getsize(path)
        reloaded[name] = modelio.load_model(path)
    return reloaded, total

