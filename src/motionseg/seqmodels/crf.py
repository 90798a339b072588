"""Linear-chain CRF over embedded sequences.

Frame features are a fixed seeded random projection of the embedding
through tanh (E basis functions); learnable parameters are per-label
weights over that basis plus a label-transition matrix. Training maximizes
the mean conditional log-likelihood by gradient ascent with a backtracking
line search, so the objective never decreases across iterations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError
from ..numerics import check_finite
from . import chain


@dataclass
class LinearChainCrf:
    projection: np.ndarray  # (E, d), fixed
    unary: np.ndarray  # (C, E), learned
    transitions: np.ndarray  # (C, C), learned
    trained: bool = False

    def __post_init__(self):
        self.projection = np.asarray(self.projection, dtype=np.float64)
        self.unary = np.asarray(self.unary, dtype=np.float64)
        self.transitions = np.asarray(self.transitions, dtype=np.float64)
        C, E = self.unary.shape
        if self.projection.shape[0] != E or self.transitions.shape != (C, C):
            raise ShapeError("crf parameter shapes disagree")
        check_finite("crf", projection=self.projection, unary=self.unary,
                     transitions=self.transitions)

    @property
    def num_labels(self) -> int:
        return self.unary.shape[0]


def new_crf(num_labels: int, embed_dim: int, num_basis: int, seed: int) -> LinearChainCrf:
    rng = np.random.default_rng(seed)
    projection = rng.normal(0.0, 1.0, size=(num_basis, embed_dim))
    return LinearChainCrf(
        projection=projection,
        unary=np.zeros((num_labels, num_basis)),
        transitions=np.zeros((num_labels, num_labels)),
    )


def crf_features(crf: LinearChainCrf, X) -> np.ndarray:
    """(T, E) potential-function basis: tanh of the fixed projection."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    return np.tanh(X @ crf.projection.T)


def _batch(crf, sequences):
    """Features (F, E), padded label scores (N, T, C) and lengths of stacked sequences."""
    X, lengths = chain.stack(sequences)
    feats = crf_features(crf, X)
    return feats, chain.pad(feats @ crf.unary.T, lengths), lengths


def crf_log_partition(crf: LinearChainCrf, X) -> float:
    """Log normalizer over all label paths, by the forward recursion."""
    _, scores, lengths = _batch(crf, [X])
    return float(chain.posteriors(scores, crf.transitions, lengths)[1][0])


def crf_viterbi(crf: LinearChainCrf, X) -> np.ndarray:
    """Most probable label path (labels 1..C)."""
    _, scores, lengths = _batch(crf, [X])
    return chain.viterbi(scores, crf.transitions, lengths)[0][0] + 1


def crf_marginals(crf: LinearChainCrf, X) -> np.ndarray:
    """(T, C) per-frame label marginals (each row sums to 1)."""
    _, scores, lengths = _batch(crf, [X])
    return chain.posteriors(scores, crf.transitions, lengths)[0][0]


def crf_loglik_and_grad(crf: LinearChainCrf, sequences):
    """Mean conditional log-likelihood and gradients over (X, labels) pairs.

    labels use 1..C. Returns (loglik, grad_unary, grad_transitions).
    """
    C = crf.num_labels
    feats, scores, lengths = _batch(crf, [X for X, _ in sequences])
    marg, pairs, logz = chain.forward_backward(scores, crf.transitions, lengths)
    mask = chain.valid(lengths, scores.shape[1])
    y = np.concatenate([np.asarray(labels, dtype=np.int64) for _, labels in sequences]) - 1
    inner = np.ones(y.shape[0], dtype=bool)  # frame i and i+1 belong to one sequence
    inner[np.cumsum(lengths) - 1] = False
    y_prev, y_next = y[inner], y[np.roll(inner, 1)]
    gold = scores[mask][np.arange(y.shape[0]), y].sum() + crf.transitions[y_prev, y_next].sum()
    g_unary = (np.eye(C)[y] - marg[mask]).T @ feats
    g_trans = np.bincount(y_prev * C + y_next, minlength=C * C).reshape(C, C) - pairs
    n_seq = len(sequences)
    return float(gold - logz.sum()) / n_seq, g_unary / n_seq, g_trans / n_seq


def crf_train(
    sequences, num_labels: int, iterations: int, num_basis: int, seed: int
) -> tuple[LinearChainCrf, list[float]]:
    """Gradient ascent with backtracking; returns (model, objective trace).

    sequences is a list of (X, labels) with labels in 1..C. The trace holds
    the mean conditional log-likelihood before each accepted step and is
    non-decreasing by construction.
    """
    if not sequences:
        raise ValueError("no training sequences")
    d = np.atleast_2d(sequences[0][0]).shape[1]
    crf = new_crf(num_labels, d, num_basis=num_basis, seed=seed)
    step = 1.0
    obj, g_u, g_t = crf_loglik_and_grad(crf, sequences)
    trace = [obj]
    for _ in range(int(iterations)):
        while True:
            trial = LinearChainCrf(
                projection=crf.projection,
                unary=crf.unary + step * g_u,
                transitions=crf.transitions + step * g_t,
            )
            new_obj, new_gu, new_gt = crf_loglik_and_grad(trial, sequences)
            if new_obj >= obj or step < 1e-12:
                break
            step *= 0.5
        if new_obj < obj:
            break  # no ascent direction left at minimal step
        crf, obj, g_u, g_t = trial, new_obj, new_gu, new_gt
        trace.append(obj)
        step *= 1.3  # cautiously re-grow after an accepted step
    crf.trained = True
    return crf, trace
