"""k-nearest-neighbour labeling in the embedding space, fully deterministic.

Neighbours are ranked by (Euclidean distance, training index); vote ties
break by smallest summed distance, then smallest label.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import NumericError, ShapeError
from ..numerics import check_finite, sq_distances


@dataclass
class KnnModel:
    train_points: np.ndarray  # (N, d), a read-only copy
    train_labels: np.ndarray  # (N,), a read-only copy
    k: int
    # np.sum(train_points**2, axis=1), and np.unique(train_labels, return_inverse=True)
    sq_norms: np.ndarray = field(init=False, repr=False, compare=False)
    classes: np.ndarray = field(init=False, repr=False, compare=False)
    label_index: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # copies the model keeps read-only, so the norms and the label index cannot go stale
        self.train_points = np.array(np.atleast_2d(self.train_points), dtype=np.float64)
        self.train_labels = np.array(self.train_labels, dtype=np.int64)
        if self.train_points.shape[0] == 0:
            raise ValueError("empty training set")
        if self.train_labels.shape != (self.train_points.shape[0],):
            raise ShapeError("labels must align with training points")
        if not (1 <= self.k <= self.train_points.shape[0]):
            raise ValueError(f"k={self.k} outside 1..{self.train_points.shape[0]}")
        check_finite("knn", train_points=self.train_points)
        self.train_points.setflags(write=False)
        self.train_labels.setflags(write=False)
        with np.errstate(over="ignore"):  # points beyond about 1e154 square to inf
            self.sq_norms = np.sum(self.train_points**2, axis=1)
        check_finite("knn", **{"train_points squared norms": self.sq_norms})
        self.classes, self.label_index = np.unique(self.train_labels, return_inverse=True)


def _distances(sq):
    """Euclidean distances from squared ones, which can round below 0."""
    return np.sqrt(np.maximum(sq, 0.0))


def _vote(sq, model: KnnModel):
    """Labels and vote fractions for each row of (M, N) query-to-training squared distances."""
    M, N = sq.shape
    k = model.k
    rows = np.arange(M)
    # sqrt is monotone, so the k + 1 smallest squared distances hold the k nearest
    # and the next; only their distances are taken
    cand = np.argpartition(sq, min(k, N - 1), axis=1)[:, : k + 1]
    cand_d = _distances(np.take_along_axis(sq, cand, axis=1))
    near, near_d = cand[:, :k], cand_d[:, :k]
    if k < N:
        # argpartition splits ties at the k-th distance arbitrarily: rows whose
        # (k+1)-th nearest is no farther than the k-th rank the whole row by index
        for i in np.nonzero(cand_d[:, k] <= near_d.max(axis=1))[0]:
            dist = _distances(sq[i])
            near[i] = np.lexsort((np.arange(N), dist))[:k]
            near_d[i] = dist[near[i]]
    order = np.lexsort((near, near_d), axis=1)
    near = np.take_along_axis(near, order, axis=1)  # nearest first, by (distance, index)
    near_d = np.take_along_axis(near_d, order, axis=1)
    near_labels = model.label_index[near]
    votes = np.zeros((M, model.classes.shape[0]), dtype=np.int64)
    dist_sum = np.zeros(votes.shape)
    for j in range(k):  # summed nearest-first, as the tie-break defines
        votes[rows, near_labels[:, j]] += 1
        dist_sum[rows, near_labels[:, j]] += near_d[:, j]
    # most votes, then smallest summed distance; the stable sort keeps the smaller label
    pick = np.lexsort((dist_sum, -votes), axis=1)[:, 0]
    return model.classes[pick], votes[rows, pick] / k


def knn_predict(train_points, train_labels, query, k: int) -> int:
    """Majority label of the k nearest training points to one query vector."""
    labels, _ = knn_predict_batch(KnnModel(train_points, train_labels, k), query)
    return int(labels[0])


def knn_predict_batch(model: KnnModel, queries) -> tuple[np.ndarray, np.ndarray]:
    """Labels and vote-fraction confidences for (M, d) query rows; NumericError
    for a row that is not finite or whose squared norm overflows."""
    Q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    with np.errstate(over="ignore"):  # rows beyond about 1e154 square to inf
        if not np.isfinite(np.sum(Q**2, axis=1)).all():
            raise NumericError("knn queries and their squared norms must be finite")
    return _vote(sq_distances(Q, model.train_points, model.sq_norms), model)
