"""Siamese encoder over frame features with metric-learning losses.

The encoder maps a frame's feature vector to a unit-norm embedding.
Training minimizes a hinge triplet loss (squared Euclidean distances, as
on the unit sphere), an n-pairs softmax loss, a time-contrastive triplet
loss over temporal windows, or a 50/50 blend of supervised triplet and
time-contrastive terms.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import DegenerateBatchError, DegenerateDatasetError, ShapeError, UnfittedModelError
from .numerics import (
    MlpParams,
    init_mlp,
    l2_normalize_rows,
    l2_normalize_rows_backward,
    mlp_backward,
    mlp_forward,
)

@dataclass
class Encoder:
    mlp: MlpParams
    trained: bool = False

    @property
    def dim(self) -> int:
        return self.mlp.out_dim


def new_encoder(feature_width: int, dim: int, hidden, seed) -> Encoder:
    sizes = [feature_width, *hidden, dim]
    return Encoder(mlp=init_mlp(sizes, rng=np.random.default_rng(seed)))


def encode_array(encoder: Encoder, features) -> np.ndarray:
    """Encode (T, F) features into (T, d) unit-norm rows."""
    out, _ = mlp_forward(encoder.mlp, np.atleast_2d(features))
    return l2_normalize_rows(out)


# ---------------------------------------------------------------------------
# losses


def triplet_loss(anchor, positive, negative, margin: float):
    """Hinge loss max(0, ||a-p||^2 - ||a-n||^2 + margin) with gradients.

    Returns (loss, (grad_anchor, grad_positive, grad_negative)); gradients
    are zero whenever the hinge is inactive.
    """
    a = np.asarray(anchor, dtype=np.float64)
    p = np.asarray(positive, dtype=np.float64)
    n = np.asarray(negative, dtype=np.float64)
    if not (a.shape == p.shape == n.shape):
        raise ShapeError("triplet members must share one dimension")
    dp = a - p
    dn = a - n
    pre = float(dp @ dp - dn @ dn + margin)
    if pre <= 0.0:
        z = np.zeros_like(a)
        return 0.0, (z, z.copy(), z.copy())
    return pre, (2.0 * (n - p), -2.0 * dp, 2.0 * dn)


def triplet_loss_batch(embeddings, triplets, margin: float):
    """Mean triplet loss over index triples into an embedding matrix.

    embeddings: (U, d); triplets: (M, 3) int indices (anchor, pos, neg).
    Returns (mean_loss, grad wrt embeddings of shape (U, d)).
    """
    E = np.asarray(embeddings, dtype=np.float64)
    tri = np.asarray(triplets, dtype=np.int64)
    if tri.size == 0:
        raise DegenerateBatchError("no triplets in batch")
    a, p, n = E[tri[:, 0]], E[tri[:, 1]], E[tri[:, 2]]
    dp = a - p
    dn = a - n
    pre = np.sum(dp * dp, axis=1) - np.sum(dn * dn, axis=1) + margin
    active = pre > 0.0
    loss = float(np.sum(pre[active])) / tri.shape[0]
    grad = np.zeros_like(E)
    if np.any(active):
        w = 2.0 / tri.shape[0]
        ai, pi, ni = tri[active, 0], tri[active, 1], tri[active, 2]
        np.add.at(grad, ai, w * (n[active] - p[active]))
        np.add.at(grad, pi, -w * dp[active])
        np.add.at(grad, ni, w * dn[active])
    return loss, grad


def npairs_loss(anchors, positives, labels):
    """N-pairs softmax loss over a batch of (anchor, positive) pairs.

    Each anchor treats every same-label positive as its target against all
    other pairs' positives (dot-product similarities). Returns
    (mean_loss, (grad_anchors, grad_positives)).
    """
    A = np.atleast_2d(np.asarray(anchors, dtype=np.float64))
    P = np.atleast_2d(np.asarray(positives, dtype=np.float64))
    y = np.asarray(labels)
    if A.shape != P.shape or A.shape[0] != y.shape[0]:
        raise ShapeError("anchors, positives and labels must align")
    B = A.shape[0]
    if B < 2:
        raise DegenerateBatchError("n-pairs needs at least 2 pairs")
    if np.unique(y).size < 2:
        raise DegenerateBatchError("n-pairs batch has a single label")
    S = A @ P.T  # (B, B) similarities
    same = y[:, None] == y[None, :]
    m = S.max(axis=1, keepdims=True)
    exps = np.exp(S - m)
    full = exps.sum(axis=1)
    hit = np.where(same, exps, 0.0).sum(axis=1)
    loss = float(np.mean(np.log(full) - np.log(hit)))
    q = exps / full[:, None]
    r = np.where(same, exps, 0.0) / hit[:, None]
    dS = (q - r) / B
    return loss, (dS @ P, dS.T @ A)


# ---------------------------------------------------------------------------
# triplet samplers


def sample_triplets_supervised(labels, rng) -> np.ndarray:
    """Index triples within one labeled batch: (M, 3) int64 rows (anchor, positive, negative).

    Every frame with at least one same-label partner anchors one triplet;
    positives share the anchor's label, negatives never do.

    Draw order: one ``rng.integers(0, highs)`` call with highs interleaved
    as (positives, negatives) per anchor in index order, which consumes the
    generator exactly as a per-anchor ``rng.choice(pos)``, ``rng.choice(neg)``
    loop over ascending candidate arrays would.
    """
    labels = np.asarray(labels).reshape(-1)
    uniq, inv, counts = np.unique(labels, return_inverse=True, return_counts=True)
    if uniq.size < 2:
        raise DegenerateBatchError("triplet sampling needs >= 2 distinct labels")
    n = labels.shape[0]
    anchors = np.flatnonzero(counts[inv] >= 2)
    if anchors.size == 0:
        warnings.warn("no valid triplets: every label occurs once", stacklevel=2)
        return np.empty((0, 3), np.int64)
    # members grouped by label, ascending within a label; rank = place in its group
    by_label = np.argsort(inv, kind="stable")
    starts = np.cumsum(counts) - counts
    rank = np.empty(n, dtype=np.int64)
    rank[by_label] = np.arange(n) - starts[inv[by_label]]
    # row l: the frames not labelled l, ascending, then l's members
    non_members = np.argsort(inv[None, :] == np.arange(uniq.size)[:, None], axis=1, kind="stable")
    la = inv[anchors]
    highs = np.empty(2 * anchors.size, dtype=np.int64)
    highs[0::2] = counts[la] - 1
    highs[1::2] = n - counts[la]
    draws = rng.integers(0, highs)
    kp = draws[0::2]
    kp += kp >= rank[anchors]  # skip the anchor itself among its label's members
    pos = by_label[starts[la] + kp]
    neg = non_members[la, draws[1::2]]
    return np.stack([anchors, pos, neg], axis=1)


def sample_triplets_time_contrastive(
    length: int, pos_window: int, neg_window: int, rng, n_triplets: int
) -> np.ndarray:
    """Window-based triples within one demonstration: (n_triplets, 3) int64 rows (anchor, positive, negative).

    Positives land within +-pos_window of the anchor, negatives strictly
    outside +-neg_window; anchors that admit no negative are excluded. Ranks
    drawn among the ascending candidates use the generator as ``rng.choice``
    on the anchor, positive and negative candidate lists would.
    """
    if length <= 2 * neg_window:
        raise DegenerateBatchError(
            f"sequence length {length} too short for neg_window {neg_window}"
        )
    anchors = [t for t in range(length) if t > neg_window or t < length - 1 - neg_window]
    triplets = []
    for _ in range(n_triplets):
        t = anchors[rng.integers(0, len(anchors))]
        lo, hi = max(0, t - pos_window), min(length - 1, t + pos_window)
        left = max(0, t - neg_window)  # negatives 0 .. left - 1, then t + neg_window + 1 ..
        kp, kn = [int(rng.integers(0, n)) for n in (hi - lo, left + max(0, length - 1 - t - neg_window))]
        pos = lo + kp + (lo + kp >= t)  # skip the anchor itself
        triplets += t, pos, kn if kn < left else kn - left + t + neg_window + 1
    return np.array(triplets, dtype=np.int64).reshape(-1, 3)


def sample_npairs(labels, rng):
    """One (anchor_idx, positive_idx) pair per label that has >= 2 frames."""
    labels = np.asarray(labels)
    anchors, positives, pair_labels = [], [], []
    for lab in np.unique(labels):
        members = np.flatnonzero(labels == lab)
        if members.size < 2:
            continue
        pick = rng.choice(members, size=2, replace=False)
        anchors.append(int(pick[0]))
        positives.append(int(pick[1]))
        pair_labels.append(lab)
    return anchors, positives, np.asarray(pair_labels)


# ---------------------------------------------------------------------------
# training


def _labeled_pool(dataset, pseudo_labels):
    """(N, 3) rows (demo_index, frame, label), sorted by (demo, frame): every visible label,
    plus the pseudo-labels (at most one per frame) that fall on unlabeled demos."""
    unlabeled = {d.demo_id: di for di, d in enumerate(dataset.demos) if d.labels is None}
    rows = [(di, t, lab) for di, d in enumerate(dataset.demos) if d.labels is not None
            for t, lab in enumerate(d.labels.tolist())]
    rows += [(unlabeled[p.demo_id], p.frame_index, p.label)
             for p in pseudo_labels if p.demo_id in unlabeled]
    pool = np.asarray(rows, dtype=np.int64).reshape(-1, 3)
    return pool[np.lexsort((pool[:, 1], pool[:, 0]))]


def train_embedding(dataset, config, seed: int, pseudo_labels=()):
    """Train an encoder on a dataset; returns (Encoder, per-step loss trace).

    config is a pipeline.PipelineConfig; its embedding fields (loss_mode,
    margin, batch_size, pos_window, neg_window, embed_dim, encoder_hidden,
    embed_lr, embed_epochs) set the run. loss_mode selects the objective:
    "triplet" (supervised), "npairs", "svtcn" (unsupervised time-contrastive),
    or "triplet_tcn" (equal-weight sum of supervised triplet and
    time-contrastive terms). pseudo_labels (pipeline.PseudoLabel objects)
    join the visible labels; those on labeled demos are ignored.
    """
    if not dataset.demos:
        raise DegenerateDatasetError("empty dataset")
    loss_mode, epochs = config.loss_mode, config.embed_epochs
    rng = np.random.default_rng(seed)
    encoder = new_encoder(
        dataset.feature_width, dim=config.embed_dim, hidden=config.encoder_hidden,
        seed=rng.integers(2**32),
    )
    params = [encoder.mlp.flat]
    opt = numerics.make_optimizer(params, lr=config.embed_lr)

    supervised = loss_mode in ("triplet", "npairs", "triplet_tcn")
    contrastive = loss_mode in ("svtcn", "triplet_tcn")
    if supervised:
        pool = _labeled_pool(dataset, pseudo_labels)
        if not len(pool):
            raise DegenerateDatasetError("no labeled frames available")
        if np.unique(pool[:, 2]).size < 2:
            raise DegenerateDatasetError("labeled pool has a single class")
    tcn_demos = [d for d in dataset.demos if d.num_frames > 2 * config.neg_window]
    if contrastive and not tcn_demos:
        raise DegenerateDatasetError("no demo long enough for time-contrastive sampling")

    trace = []
    frames = len(pool) if supervised else dataset.num_frames
    steps_per_epoch = max(1, -(-frames // config.batch_size))
    # each term's share of a step; a triplet_tcn step whose chunk forms no
    # triplets still takes half its time-contrastive term
    weight = 0.5 if loss_mode == "triplet_tcn" else 1.0
    for _ in range(int(epochs)):
        order = rng.permutation(len(pool)) if supervised else None
        for step in range(steps_per_epoch):
            parts = []
            if supervised:
                chunk = order[step * config.batch_size : (step + 1) * config.batch_size]
                if chunk.size:
                    part = _supervised_step(dataset, pool[chunk], config, rng, encoder)
                    if part is not None:
                        parts.append(part)
            if contrastive:
                parts.append(_tcn_step(tcn_demos, config, rng, encoder))
            if not parts:
                continue
            # the weighted gradients, scaled in place and summed, laid out like mlp.flat
            grads = [np.multiply(g, weight, out=g) for _, g in parts]
            numerics.optimizer_step(params, [sum(grads[1:], grads[0])], opt)
            trace.append(sum(weight * loss for loss, _ in parts))
    encoder.trained = epochs > 0
    return encoder, trace


def _forward_loss_backward(encoder, X, loss_on_embeddings):
    """Shared plumbing: encode X, apply a loss on unit embeddings, backprop."""
    H, cache = mlp_forward(encoder.mlp, X)
    E = l2_normalize_rows(H)
    loss, grad_E = loss_on_embeddings(E)
    grad_H = l2_normalize_rows_backward(H, grad_E)
    grad, _ = mlp_backward(encoder.mlp, cache, grad_H)
    return loss, grad


def _supervised_step(dataset, rows, config, rng, encoder):
    labels = rows[:, 2]
    uniq, counts = np.unique(labels, return_counts=True)
    if uniq.size < 2 or counts.max() < 2:
        return None  # chunk cannot form triplets or pairs
    # row by row: a copy of the whole pool's features would add N*F floats to peak memory
    X = np.array([dataset.demos[di].features[t] for di, t in rows[:, :2].tolist()])
    if config.loss_mode == "npairs":
        ai, pi, pair_labels = sample_npairs(labels, rng)
        if len(ai) < 2:
            return None
        def npairs_on(E):
            loss, (gA, gP) = npairs_loss(E[ai], E[pi], pair_labels)
            grad = np.zeros_like(E)
            np.add.at(grad, ai, gA)
            np.add.at(grad, pi, gP)
            return loss, grad
        return _forward_loss_backward(encoder, X, npairs_on)
    def triplet_on(E):
        return triplet_loss_batch(E, sample_triplets_supervised(labels, rng), config.margin)

    return _forward_loss_backward(encoder, X, triplet_on)


def _tcn_step(tcn_demos, config, rng, encoder):
    weights = np.asarray([d.num_frames for d in tcn_demos], dtype=np.float64)
    demo = tcn_demos[int(rng.choice(len(tcn_demos), p=weights / weights.sum()))]
    triplets = sample_triplets_time_contrastive(
        demo.num_frames, config.pos_window, config.neg_window, rng, config.batch_size
    )
    used, tri_local = np.unique(triplets, return_inverse=True)  # frames in order, local triples
    return _forward_loss_backward(
        encoder, demo.features[used],
        lambda E: triplet_loss_batch(E, tri_local.reshape(-1, 3), config.margin),
    )


# ---------------------------------------------------------------------------
# incremental PCA baseline


class IncrementalPca:
    """Streaming PCA onto the top n_components directions.

    partial_fit merges each batch into a running SVD of the centered data;
    components stay orthonormal because they are rows of V^T.
    """

    def __init__(self, n_components: int):
        if n_components < 1:
            raise ValueError("n_components must be >= 1")
        self.n_components = n_components
        self.mean_ = None
        self.components_ = None
        self.singular_values_ = None
        self.n_seen_ = 0

    def partial_fit(self, X) -> "IncrementalPca":
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        n_new = X.shape[0]
        if self.n_seen_ == 0:
            if n_new < self.n_components:
                raise DegenerateBatchError(
                    f"first batch needs >= {self.n_components} rows, got {n_new}"
                )
            self.mean_ = X.mean(axis=0)
            stack = X - self.mean_
            self.n_seen_ = n_new
        else:
            if X.shape[1] != self.mean_.shape[0]:
                raise ShapeError("batch width changed between partial_fit calls")
            n_total = self.n_seen_ + n_new
            batch_mean = X.mean(axis=0)
            centered = X - batch_mean
            correction = np.sqrt(self.n_seen_ * n_new / n_total) * (self.mean_ - batch_mean)
            stack = np.vstack(
                [self.singular_values_[:, None] * self.components_, centered, correction[None, :]]
            )
            self.mean_ = (self.n_seen_ * self.mean_ + n_new * batch_mean) / n_total
            self.n_seen_ = n_total
        _, s, vt = np.linalg.svd(stack, full_matrices=False)
        k = min(self.n_components, vt.shape[0])
        comps = vt[:k]
        # fix component signs for reproducible dumps
        signs = np.sign(comps[np.arange(k), np.argmax(np.abs(comps), axis=1)])
        signs[signs == 0] = 1.0
        self.components_ = comps * signs[:, None]
        self.singular_values_ = s[:k]
        return self

    def transform(self, X) -> np.ndarray:
        if self.components_ is None:
            raise UnfittedModelError("transform called before any partial_fit")
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return (X - self.mean_) @ self.components_.T


# ---------------------------------------------------------------------------
# 2-D projection


def pca2d(points) -> np.ndarray:
    """Project (N, d) points onto their top-2 principal directions; 1-wide points get y = 0."""
    X = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if X.shape[0] < 2:
        raise DegenerateBatchError("need at least 2 points for a 2-D projection")
    coords = IncrementalPca(min(2, X.shape[1])).partial_fit(X).transform(X)
    return np.hstack([coords, np.zeros((X.shape[0], 2 - coords.shape[1]))])
