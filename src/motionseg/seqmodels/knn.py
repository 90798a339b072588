"""k-nearest-neighbour labeling in the embedding space, fully deterministic.

Neighbours are ranked by (Euclidean distance, training index); vote ties
break by smallest summed distance, then smallest label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError


@dataclass
class KnnModel:
    train_points: np.ndarray  # (N, d)
    train_labels: np.ndarray  # (N,)
    k: int = 5

    def __post_init__(self):
        self.train_points = np.atleast_2d(np.asarray(self.train_points, dtype=np.float64))
        self.train_labels = np.asarray(self.train_labels, dtype=np.int64)
        if self.train_points.shape[0] == 0:
            raise ValueError("empty training set")
        if self.train_labels.shape != (self.train_points.shape[0],):
            raise ShapeError("labels must align with training points")
        if not (1 <= self.k <= self.train_points.shape[0]):
            raise ValueError(f"k={self.k} outside 1..{self.train_points.shape[0]}")


def _vote(distances, labels, k):
    """Labels and vote fractions for each row of (M, N) query-to-training distances."""
    rows = np.arange(distances.shape[0])
    near = np.argpartition(distances, k - 1, axis=1)[:, :k]
    # argpartition splits ties at the k-th distance arbitrarily: rows with more
    # points at that distance than places left rank the whole row by index
    kth = np.take_along_axis(distances, near, axis=1).max(axis=1, keepdims=True)
    for i in np.nonzero((distances <= kth).sum(axis=1) > k)[0]:
        near[i] = np.lexsort((np.arange(distances.shape[1]), distances[i]))[:k]
    order = np.lexsort((near, np.take_along_axis(distances, near, axis=1)), axis=1)
    near = np.take_along_axis(near, order, axis=1)  # nearest first, by (distance, index)
    near_d = np.take_along_axis(distances, near, axis=1)
    classes, label_idx = np.unique(labels, return_inverse=True)
    near_labels = label_idx[near]
    votes = np.zeros((rows.shape[0], classes.shape[0]), dtype=np.int64)
    dist_sum = np.zeros(votes.shape)
    for j in range(k):  # summed nearest-first, as the tie-break defines
        votes[rows, near_labels[:, j]] += 1
        dist_sum[rows, near_labels[:, j]] += near_d[:, j]
    # most votes, then smallest summed distance; the stable sort keeps the smaller label
    pick = np.lexsort((dist_sum, -votes), axis=1)[:, 0]
    return classes[pick], votes[rows, pick] / k


def knn_predict(train_points, train_labels, query, k: int) -> int:
    """Majority label of the k nearest training points to one query vector."""
    labels, _ = knn_predict_batch(KnnModel(train_points, train_labels, k), query)
    return int(labels[0])


def knn_predict_batch(model: KnnModel, queries) -> tuple[np.ndarray, np.ndarray]:
    """Labels and vote-fraction confidences for (M, d) query rows."""
    Q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    d2 = (
        np.sum(Q**2, axis=1, keepdims=True)
        - 2.0 * Q @ model.train_points.T
        + np.sum(model.train_points**2, axis=1)
    )
    distances = np.sqrt(np.maximum(d2, 0.0, out=d2), out=d2)
    return _vote(distances, model.train_labels, model.k)
