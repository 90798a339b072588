"""Semi-supervised alternation: embed, segment, pseudo-label, re-embed.

Round 1 pretrains the encoder on true labels and fits the chosen sequence
model. Every later round infers pseudo-labels on the unlabeled training
demos, keeps the top-k most confident frames per class, and retrains both
models from scratch with true plus pseudo labels. Pseudo-labels are
rebuilt each round, never accumulated, and never overwrite true labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, mask_labels, split_leave_one_out
from .embedding import Encoder, encode_array, train_embedding
from .errors import DegenerateDatasetError, UnfittedModelError
from .seqmodels import (
    KnnModel,
    crf_marginals,
    crf_train,
    crf_viterbi,
    hmm_em_fit,
    hmm_forward_backward,
    hmm_viterbi,
    hsmm_em_fit,
    hsmm_viterbi,
    knn_predict_batch,
    rnn_predict_sequence,
    rnn_train,
)
from .seqmodels.hmm import hmm_viterbi_batch
from .seqmodels.hsmm import hsmm_posteriors, hsmm_viterbi_batch

LOSS_MODES = ("triplet", "npairs", "svtcn", "triplet_tcn")
SEQ_MODELS = ("knn", "hmm", "hsmm", "crf", "rnn")


@dataclass
class PseudoLabel:
    demo_id: str
    frame_index: int
    label: int
    confidence: float


@dataclass
class PipelineConfig:
    rounds: int = 3
    top_k: int = 100  # frames kept per class per round
    stride: int = 64  # rnn window length in frames
    loss_mode: str = "triplet"
    seq_model: str = "rnn"
    labeled_fraction: float = 1.0
    seed: int = 0
    val_index: int = 0
    early_stop_tol: float = 0.002
    # embedding
    margin: float = 0.2
    batch_size: int = 128
    pos_window: int = 6
    neg_window: int = 12
    embed_dim: int = 32
    encoder_hidden: tuple = (256, 64)
    embed_epochs: int = 20
    embed_lr: float = 1e-3
    # sequence models
    rnn_hidden: int = 256
    rnn_epochs: int = 30
    rnn_lr: float = 1e-2
    rnn_batch: int = 8
    hmm_states: int = 30
    em_iterations: int = 10
    d_max: int = 60
    crf_basis: int = 32
    crf_iterations: int = 50
    knn_k: int = 5

    def __post_init__(self):
        for name in ("rounds", "top_k", "stride", "batch_size", "embed_dim", "rnn_hidden",
                     "rnn_batch", "hmm_states", "d_max", "crf_basis", "knn_k"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if min(self.encoder_hidden, default=1) < 1 or self.val_index < 0:
            raise ValueError("need encoder_hidden widths >= 1 and val_index >= 0")
        if self.margin <= 0:
            raise ValueError("margin must be positive")
        if not (0 < self.pos_window < self.neg_window):
            raise ValueError("need neg_window > pos_window > 0")
        if not (0.0 < self.labeled_fraction <= 1.0):
            raise ValueError("labeled_fraction must be in (0, 1]")
        if self.seq_model not in SEQ_MODELS:
            raise ValueError(f"unknown sequence model {self.seq_model!r}")
        if self.loss_mode not in LOSS_MODES:
            raise ValueError(f"unknown loss mode {self.loss_mode!r}")


@dataclass
class SegmenterBundle:
    """A trained sequence model plus whatever it needs to emit labels."""

    kind: str
    model: object
    state_map: np.ndarray | None = None  # hmm/hsmm: label of each hidden state


# ---------------------------------------------------------------------------
# encoder pretraining and sequence-model fitting


def greedy_state_label_map(paths, labels, n_states: int) -> np.ndarray:
    """(n_states,) label of each hidden state: its majority co-occurring label.

    paths and labels align elementwise; None label entries contribute
    nothing. A state never seen alongside a label takes the globally most
    frequent label. Ties break toward the smaller label.
    """
    pairs = [(p, lab) for p, lab in zip(paths, labels) if lab is not None]
    if not pairs:
        raise ValueError("no labeled frames available for the state-label map")
    path = np.concatenate([p for p, _ in pairs]).astype(np.int64)
    lab = np.concatenate([y for _, y in pairs]).astype(np.int64)
    counts = np.zeros((n_states, lab.max() + 1), dtype=np.int64)
    np.add.at(counts, (path, lab), 1)
    state_label = counts.argmax(axis=1)
    state_label[counts.sum(axis=1) == 0] = counts.sum(axis=0).argmax()
    return state_label


def pretrain_encoder(dataset: Dataset, config: PipelineConfig, seed: int | None = None):
    """Train the encoder on true labels only; returns (Encoder, loss trace)."""
    return train_embedding(dataset, config, config.seed if seed is None else seed)


def train_sequence_model(embed_fn, dataset: Dataset, config: PipelineConfig, seed: int,
                         kind: str | None = None) -> SegmenterBundle:
    """Fit the chosen segment model on embedded training demos.

    Every kind needs a labeled demo. Supervised kinds (knn, crf, rnn) use
    the labeled demos; hmm/hsmm fit unsupervised on every training demo and
    get a greedy state-label map from the labeled subset.
    """
    kind = kind or config.seq_model
    labeled = dataset.labeled_demos()
    if not labeled:
        raise DegenerateDatasetError(f"{kind} needs labeled demos")
    if kind == "knn":
        X = np.vstack([embed_fn(d.features) for d in labeled])
        y = np.concatenate([d.labels for d in labeled])
        return SegmenterBundle("knn", KnnModel(X, y, k=min(config.knn_k, X.shape[0])))
    if kind == "rnn":
        seqs = [embed_fn(d.features) for d in labeled]
        labs = [d.labels for d in labeled]
        rnn, _ = rnn_train(seqs, labs, dataset.num_classes, config, seed=seed)
        return SegmenterBundle("rnn", rnn)
    if kind == "crf":
        seqs = [(embed_fn(d.features), d.labels) for d in labeled]
        crf, _ = crf_train(
            seqs, dataset.num_classes, iterations=config.crf_iterations,
            num_basis=config.crf_basis, seed=seed,
        )
        return SegmenterBundle("crf", crf)
    if kind in ("hmm", "hsmm"):
        all_embedded = [embed_fn(d.features) for d in dataset.demos]
        total = sum(e.shape[0] for e in all_embedded)
        K = min(config.hmm_states, total)
        if kind == "hmm":
            model, _ = hmm_em_fit(all_embedded, K=K, iterations=config.em_iterations, seed=seed)
            decode = hmm_viterbi_batch
        else:
            model, _ = hsmm_em_fit(
                all_embedded, K=K, iterations=config.em_iterations, seed=seed, d_max=config.d_max
            )
            decode = hsmm_viterbi_batch
        # labeled demos are a subset of dataset.demos, already embedded above
        labeled_E = [E for E, d in zip(all_embedded, dataset.demos) if d.labels is not None]
        paths = decode(model, labeled_E)[0]
        state_label = greedy_state_label_map(paths, [d.labels for d in labeled], K)
        return SegmenterBundle(kind, model, state_map=state_label)
    raise ValueError(f"unknown sequence model {kind!r}")


def predict_frames(bundle: SegmenterBundle, embedded) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame (labels 1..C, confidences in (0, 1]) for one embedded demo."""
    E = np.atleast_2d(embedded)
    if bundle.kind == "knn":
        return knn_predict_batch(bundle.model, E)
    if bundle.kind == "rnn":
        return rnn_predict_sequence(bundle.model, E)
    if bundle.kind == "crf":
        labels = crf_viterbi(bundle.model, E)
        marg = crf_marginals(bundle.model, E)
        conf = marg[np.arange(E.shape[0]), labels - 1]
        return labels, conf
    if bundle.kind in ("hmm", "hsmm"):
        if bundle.kind == "hmm":
            gamma, _ = hmm_forward_backward(bundle.model, E)
            path, _ = hmm_viterbi(bundle.model, E)
        else:
            _, gamma = hsmm_posteriors(bundle.model, E)
            path, _ = hsmm_viterbi(bundle.model, E)
        state_label = bundle.state_map
        label_post = np.zeros((E.shape[0], state_label.max() + 1))
        np.add.at(label_post.T, state_label, gamma.T)  # states summed in index order
        labels = state_label[path]
        conf = np.clip(label_post[np.arange(E.shape[0]), labels], 1e-12, 1.0)
        return labels, conf
    raise ValueError(f"unknown bundle kind {bundle.kind!r}")


def evaluate_segmentation(embed_fn, bundle: SegmenterBundle, demos) -> float:
    """Frame accuracy against true (or hidden) labels, pooled over demos."""
    hits = total = 0
    for demo in demos:
        truth = demo.true_labels()
        if truth is None:
            continue
        pred, _ = predict_frames(bundle, embed_fn(demo.features))
        hits += int((pred == truth).sum())
        total += demo.num_frames
    if total == 0:
        raise DegenerateDatasetError("no ground-truth labels to evaluate against")
    return hits / total


# ---------------------------------------------------------------------------
# pseudo-labels


def infer_pseudo_labels(encoder: Encoder, bundle: SegmenterBundle, unlabeled_demos):
    """One PseudoLabel per unlabeled frame."""
    if not encoder.trained:
        raise UnfittedModelError("encoder has not been trained")
    if bundle is None:
        raise UnfittedModelError("sequence model has not been trained")
    out = []
    for demo in unlabeled_demos:
        labels, conf = predict_frames(bundle, encode_array(encoder, demo.features))
        for t in range(demo.num_frames):
            out.append(
                PseudoLabel(
                    demo_id=demo.demo_id,
                    frame_index=t,
                    label=int(labels[t]),
                    confidence=float(conf[t]),
                )
            )
    return out


def select_top_k(pseudo_labels, k: int):
    """Keep the k most confident frames per class; ties break on (demo, frame)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    by_class: dict[int, list[PseudoLabel]] = {}
    for p in pseudo_labels:
        by_class.setdefault(p.label, []).append(p)
    kept = []
    for label in sorted(by_class):
        ranked = sorted(
            by_class[label], key=lambda p: (-p.confidence, p.demo_id, p.frame_index)
        )
        kept.extend(ranked[:k])
    return kept


# ---------------------------------------------------------------------------
# the alternation loop


@dataclass
class RoundMetrics:
    round: int
    embed_loss: float
    train_acc: float
    val_acc: float
    n_pseudo: int = 0


def train_val_split(dataset: Dataset, config: PipelineConfig) -> tuple[Dataset, Dataset]:
    """A run's (train, validation) split: labels masked to whole demos when
    config.labeled_fraction is below 1, then one demo per demonstrator held out."""
    if config.labeled_fraction < 1.0:
        dataset = mask_labels(dataset, config.labeled_fraction, config.seed)
    return split_leave_one_out(dataset, config.val_index)


def run_alternation(dataset: Dataset, config: PipelineConfig):
    """Full semi-supervised loop; returns (encoder, bundle, [RoundMetrics...]).

    Trains and validates on train_val_split(dataset, config), rejecting a
    split without a labeled training demo before any model trains. Stops
    early once validation accuracy improves by less than early_stop_tol and
    returns the last round run, even when its validation accuracy fell.
    """
    train, val = train_val_split(dataset, config)
    if not train.labeled_demos():
        raise DegenerateDatasetError(f"{config.seq_model} needs labeled demos")
    rng = np.random.default_rng(config.seed)

    trace: list[RoundMetrics] = []
    encoder = bundle = None
    pseudo_kept: list[PseudoLabel] = []
    for round_idx in range(1, config.rounds + 1):
        embed_seed = int(rng.integers(2**32))
        seq_seed = int(rng.integers(2**32))
        if round_idx == 1:
            encoder, embed_trace = pretrain_encoder(train, config, seed=embed_seed)
        else:
            pseudo = infer_pseudo_labels(encoder, bundle, train.unlabeled_demos())
            pseudo_kept = select_top_k(pseudo, config.top_k)
            encoder, embed_trace = train_embedding(train, config, embed_seed, pseudo_kept)
        embed_fn = lambda F: encode_array(encoder, F)
        bundle = train_sequence_model(embed_fn, train, config, seed=seq_seed)
        train_acc = evaluate_segmentation(embed_fn, bundle, train.labeled_demos())
        val_acc = evaluate_segmentation(embed_fn, bundle, val.demos)
        trace.append(
            RoundMetrics(
                round=round_idx,
                embed_loss=float(np.mean(embed_trace)) if embed_trace else 0.0,
                train_acc=train_acc,
                val_acc=val_acc,
                n_pseudo=len(pseudo_kept),
            )
        )
        if not train.unlabeled_demos():
            break  # nothing to pseudo-label, later rounds would be identical
        if round_idx >= 2 and trace[-1].val_acc - trace[-2].val_acc < config.early_stop_tol:
            break
    return encoder, bundle, trace
