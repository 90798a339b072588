"""Gaussian hidden Markov model: batched log-space inference and EM fitting.

Inference and the E-step run through the shared chain kernel
(``chain.py``), batched over sequences. Covariances carry a small diagonal
floor so EM never degenerates on tight clusters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ModelInvalidError, ShapeError
from ..numerics import check_finite, sq_distances
from . import chain
from .chain import log_clip

MIN_COVAR = 1e-4  # diagonal floor added to every fitted covariance


@dataclass
class GaussianHmm:
    pi: np.ndarray  # (K,)
    A: np.ndarray  # (K, K) row-stochastic
    means: np.ndarray  # (K, d)
    covs: np.ndarray  # (K, d, d)
    factors: tuple = field(init=False, repr=False, compare=False)  # gaussian_factors(covs)

    def __post_init__(self):
        hold_gaussian_states(self, "hmm")
        if np.max(np.abs(self.A.sum(axis=1) - 1.0)) > 1e-10:
            raise ModelInvalidError("transition rows must sum to 1 within 1e-10")

    @property
    def n_states(self) -> int:
        return self.pi.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def gaussian_factors(covs) -> tuple[np.ndarray, np.ndarray]:
    """Whitening layout (d, K*d) and log-determinants (K,) of covariances (K, d, d):
    columns k*d .. k*d + d - 1 hold W_k.T, where W_k is the inverse Cholesky
    factor of covs[k], so X @ layout whitens the rows of X under every state."""
    try:
        chol = np.linalg.cholesky(covs)
    except np.linalg.LinAlgError:
        raise ModelInvalidError("covariance is not positive definite") from None
    K, d = chol.shape[0], chol.shape[1]
    whiten = np.linalg.inv(chol).transpose(2, 0, 1).reshape(d, K * d)
    return whiten, 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)


def hold_gaussian_states(model, name: str, **finite) -> None:
    """Coerce the pi, A, means and covs of a Gaussian-state model (HMM or HSMM) to
    float64; check that they are (K,), (K, K), (K, d) and (K, d, d) and finite,
    with the arrays in finite; then hold a read-only copy of covs and its
    gaussian_factors: an in-place write raises instead of leaving them stale."""
    model.pi, model.A = np.asarray(model.pi, dtype=np.float64), np.asarray(model.A, dtype=np.float64)
    model.means = np.atleast_2d(np.asarray(model.means, dtype=np.float64))
    model.covs = np.array(model.covs, dtype=np.float64)
    K, d = model.pi.shape[0], model.means.shape[1]
    shapes = (model.pi.shape, model.A.shape, model.means.shape, model.covs.shape)
    if shapes != ((K,), (K, K), (K, d), (K, d, d)):
        raise ShapeError(f"{name} parameter shapes disagree")
    check_finite(name, pi=model.pi, A=model.A, means=model.means, covs=model.covs, **finite)
    model.covs.setflags(write=False)
    model.factors = gaussian_factors(model.covs)


EMISSION_BLOCK = 1 << 16  # floats of whitened frames, rows x K x d, computed at once


def _gaussian_logpdfs(X, means, whiten, logdet) -> np.ndarray:
    """(F, K) log densities of the rows of X under each N(means[k], covs[k]),
    given the covariances' gaussian_factors: z = X W_k.T - W_k means[k] for all
    K states from one product per block of frames, then -(|z|^2 + d log 2pi + logdet) / 2."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    F, d = X.shape
    K = len(means)
    # W_k means[k], per call: the means stay writable, so it cannot be held
    shift = np.matmul(means[:, None, :], whiten.reshape(d, K, d).transpose(1, 0, 2))[:, 0]
    rows = max(1, EMISSION_BLOCK // (K * d))
    out = np.empty((F, K))
    z = np.empty((min(rows, F), K * d))  # reused by every block
    for start in range(0, F, rows):
        block = X[start : start + rows]
        zb = np.matmul(block, whiten, out=z[: len(block)]).reshape(len(block), K, d)
        zb -= shift
        np.einsum("fkj,fkj->fk", zb, zb, out=out[start : start + len(block)])
    out += d * np.log(2.0 * np.pi) + logdet
    return np.multiply(out, -0.5, out=out)


def emission_log_probs(model, X) -> np.ndarray:
    """(T, K) emission log densities under the model's Gaussian states (HMM or HSMM)."""
    return _gaussian_logpdfs(X, model.means, *model.factors)


def _chain_args(hmm: GaussianHmm, X, lengths):
    """Chain-kernel arguments for the sequences stacked in X (F, d)."""
    logb = chain.pad(emission_log_probs(hmm, X), lengths)
    return logb, log_clip(hmm.A), lengths, log_clip(hmm.pi)


def hmm_forward_backward(hmm: GaussianHmm, X) -> tuple[np.ndarray, float]:
    """Per-frame state posteriors (each row sums to 1) and total log-likelihood."""
    gamma, logz, _ = chain.posteriors(*_chain_args(hmm, *chain.stack([X])))
    return gamma[0], float(logz[0])


def hmm_viterbi_batch(hmm: GaussianHmm, sequences) -> tuple[list, np.ndarray]:
    """Most probable state path of each sequence and their joint log-probabilities."""
    return chain.viterbi(*_chain_args(hmm, *chain.stack(sequences)))


def hmm_viterbi(hmm: GaussianHmm, X) -> tuple[np.ndarray, float]:
    """Most probable state path and its joint log-probability."""
    paths, best = hmm_viterbi_batch(hmm, [X])
    return paths[0], float(best[0])


# ---------------------------------------------------------------------------
# fitting


def kmeans_plus_plus(X, K, rng) -> np.ndarray:
    """k-means++ seeding of frames X (F, d) followed by ten Lloyd refinements."""
    n = X.shape[0]
    centers = np.empty((K, X.shape[1]))
    centers[0] = X[int(rng.integers(n))]
    closest = np.sum((X - centers[0]) ** 2, axis=1)
    for k in range(1, K):
        total = closest.sum()
        if total <= 0:
            centers[k] = X[int(rng.integers(n))]
        else:
            centers[k] = X[int(rng.choice(n, p=closest / total))]
        closest = np.minimum(closest, np.sum((X - centers[k]) ** 2, axis=1))
    for _ in range(10):
        assign = np.argmin(sq_distances(X, centers), axis=1)
        for k in range(K):
            members = X[assign == k]
            if members.shape[0]:
                centers[k] = members.mean(axis=0)
    return centers


def gaussian_m_step(X, g):
    """Means and floored covariances of frames X (F, d) under state weights g (F, K)."""
    occ = np.maximum(g.sum(axis=0), 1e-300)
    means = (g.T @ X) / occ[:, None]
    covs = []
    for k in range(g.shape[1]):
        diff = X - means[k]
        covs.append((diff * g[:, k, None]).T @ diff / occ[k] + MIN_COVAR * np.eye(X.shape[1]))
    return means, np.stack(covs)


def init_gaussian_hmm(X, K, seed) -> GaussianHmm:
    """k-means++ means, pooled covariance, uniform initial/transition terms for frames X (F, d)."""
    if X.shape[0] < K:
        raise ValueError(f"need >= {K} frames to fit {K} states")
    rng = np.random.default_rng(seed)
    means = kmeans_plus_plus(X, K, rng)
    base = np.atleast_2d(np.cov(X, rowvar=False, bias=True))
    cov = base + MIN_COVAR * np.eye(base.shape[0])
    covs = np.repeat(cov[None, :, :], K, axis=0)
    return GaussianHmm(
        pi=np.full(K, 1.0 / K), A=np.full((K, K), 1.0 / K), means=means, covs=covs
    )


def transition_m_step(counts, fallback, floor: float) -> np.ndarray:
    """Expected transition counts (K, K) normalised by row; a row whose counts
    sum to no more than floor takes the fallback row instead."""
    rows = counts.sum(axis=1)
    A = np.where(rows[:, None] > floor, counts / np.maximum(rows, 1e-300)[:, None], fallback)
    A /= A.sum(axis=1, keepdims=True)
    return A


def em_fit(sequences, iterations: int, start, e_step, refit):
    """EM over a list of (T, d) sequences, for the HMM and the HSMM alike. start(X,
    lengths) builds the first model from the frames (F, d), stacked once, and the
    lengths (N,); e_step(model, X, lengths) returns (logliks (N,), gamma (N, T, K),
    *stats), and with stats=False only the first two; refit(model, pi, means, covs,
    *stats) builds the next one. Returns (model, trace): trace[i] is the total
    log-likelihood under the parameters entering iteration i (iterations + 1
    entries, the last the final model's, read without the stats), non-decreasing
    up to the covariance floor."""
    if len(sequences) == 0:
        raise ValueError("no training frames")
    X, lengths = chain.stack(sequences)
    model, trace = start(X, lengths), []
    for _ in range(int(iterations)):
        loglik, gamma, *stats = e_step(model, X, lengths)
        trace.append(float(loglik.sum()))
        first = gamma[:, 0].sum(axis=0)
        means, covs = gaussian_m_step(X, gamma[chain.valid(lengths, gamma.shape[1])])
        del gamma  # frees the posteriors before the next E-step allocates its own
        model = refit(model, first / first.sum(), means, covs, *stats)
    trace.append(float(e_step(model, X, lengths, stats=False)[0].sum()))
    return model, trace


def _e_step(hmm: GaussianHmm, X, lengths, stats: bool = True):
    args = _chain_args(hmm, X, lengths)
    gamma, logz, la = chain.posteriors(*args)
    return (logz, gamma, chain.pair_sum(la, gamma, args[1])) if stats else (logz, gamma)


def _refit(hmm: GaussianHmm, pi, means, covs, xi) -> GaussianHmm:
    return GaussianHmm(pi=pi, A=transition_m_step(xi, 1.0 / hmm.n_states, 0.0), means=means, covs=covs)


def hmm_em_fit(sequences, K: int, iterations: int, seed: int) -> tuple[GaussianHmm, list[float]]:
    """Baum-Welch over a list of (T, d) sequences; returns (model, trace) as em_fit does."""
    return em_fit(sequences, iterations, lambda X, _: init_gaussian_hmm(X, K, seed), _e_step, _refit)
