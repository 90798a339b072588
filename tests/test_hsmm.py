import itertools

import numpy as np
import pytest

from motionseg.errors import DegenerateDatasetError
from motionseg.seqmodels import chain
from motionseg.seqmodels import hsmm as hsmm_module
from motionseg.seqmodels.hmm import GaussianHmm, emission_log_probs, hmm_viterbi
from motionseg.seqmodels.hsmm import (
    Hsmm,
    duration_log_pmf,
    fit_truncated_poisson,
    hsmm_em_fit,
    hsmm_loglik,
    hsmm_viterbi,
)


def random_hsmm(K, d, d_max, rng):
    if K > 1:
        A = rng.dirichlet(np.ones(K - 1), size=K)
        full = np.zeros((K, K))
        for k in range(K):
            full[k, [j for j in range(K) if j != k]] = A[k]
    else:
        full = np.zeros((1, 1))
    means = rng.normal(size=(K, d)) * 1.5
    covs = np.stack([np.eye(d) * (0.4 + rng.random()) for _ in range(K)])
    lambdas = rng.uniform(0.5, d_max, size=K)
    return Hsmm(
        pi=rng.dirichlet(np.ones(K)), A=full, means=means, covs=covs,
        lambdas=lambdas, d_max=d_max,
    )


def compositions(total, max_part):
    """All ordered duration lists summing to total with parts in 1..max_part."""
    if total == 0:
        yield []
        return
    for first in range(1, min(max_part, total) + 1):
        for rest in compositions(total - first, max_part):
            yield [first] + rest


def segmentations(hsmm, X):
    """Every valid segmentation of X as (log-probability, states, durations)."""
    logb = emission_log_probs(hsmm, X)
    T, K = logb.shape
    log_dur = duration_log_pmf(hsmm.lambdas, hsmm.d_max)
    log_pi = np.log(np.maximum(hsmm.pi, 1e-300))
    with np.errstate(divide="ignore"):
        log_A = np.log(hsmm.A)
    scores = []
    for durs in compositions(T, hsmm.d_max):
        m = len(durs)
        for states in itertools.product(range(K), repeat=m):
            if any(a == b for a, b in zip(states, states[1:])):
                continue
            t = 0
            s = log_pi[states[0]]
            prev = None
            for state, d in zip(states, durs):
                if prev is not None:
                    s += log_A[prev, state]
                s += log_dur[state, d - 1] + logb[t : t + d, state].sum()
                t += d
                prev = state
            scores.append((s, states, durs))
    return scores


def enumerate_segmentations(hsmm, X):
    """Oracle: total and best log-probability over every valid segmentation."""
    scores = segmentations(hsmm, X)
    arr = np.array([s for s, _, _ in scores])
    m = arr.max()
    total = m + np.log(np.sum(np.exp(arr - m)))
    best = max(scores, key=lambda item: item[0])
    path = np.concatenate([[st] * d for st, d in zip(best[1], best[2])])
    return total, best[0], path


def test_loglik_matches_segmentation_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(10):
        hsmm = random_hsmm(K=2, d=2, d_max=3, rng=rng)
        X = rng.normal(size=(5, 2))
        oracle, _, _ = enumerate_segmentations(hsmm, X)
        assert abs(hsmm_loglik(hsmm, X) - oracle) < 1e-9


def enumerate_statistics(hsmm, X):
    """Oracle for the E-step statistics: the expected segments (K,) and frames
    (K,) of each state and the expected transitions (K, K), each segmentation
    weighted by its posterior."""
    scores = segmentations(hsmm, X)
    weights = np.exp(np.array([s for s, _, _ in scores]) - max(s for s, _, _ in scores))
    weights /= weights.sum()
    K = hsmm.n_states
    segments, frames, xi = np.zeros(K), np.zeros(K), np.zeros((K, K))
    for weight, (_, states, durs) in zip(weights, scores):
        for state, d in zip(states, durs):
            segments[state] += weight
            frames[state] += weight * d
        for a, b in zip(states, states[1:]):
            xi[a, b] += weight
    return segments, frames, xi


@pytest.mark.parametrize("seed", range(12))
def test_e_step_statistics_match_segmentation_enumeration(seed):
    rng = np.random.default_rng(seed)
    K, d_max = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    longest = d_max if K == 1 else 6  # one state explains no sequence longer than d_max
    hsmm = random_hsmm(K=K, d=2, d_max=d_max, rng=rng)
    seqs = [rng.normal(size=(int(n), 2)) for n in rng.integers(1, longest + 1, size=rng.integers(1, 4))]
    _, _, xi, segments, frames = hsmm_module._posteriors(hsmm, *chain.stack(seqs), stats=True)
    want = [sum(parts) for parts in zip(*(enumerate_statistics(hsmm, X) for X in seqs))]
    for name, got, oracle in zip(("segments", "frames", "xi"), (segments, frames, xi), want):
        np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-9, err_msg=name)


def test_viterbi_matches_segmentation_enumeration():
    rng = np.random.default_rng(1)
    for _ in range(10):
        hsmm = random_hsmm(K=2, d=2, d_max=3, rng=rng)
        X = rng.normal(size=(6, 2))
        path, score = hsmm_viterbi(hsmm, X)
        _, best_score, best_path = enumerate_segmentations(hsmm, X)
        assert abs(score - best_score) < 1e-9
        np.testing.assert_array_equal(path, best_path)


def test_concentrated_duration_forces_three_frame_segments():
    # lambda >> d_max pushes nearly all duration mass onto d = 3
    means = np.array([[-4.0], [4.0]])
    covs = np.array([[[0.3]], [[0.3]]])
    hsmm = Hsmm(
        pi=[0.5, 0.5],
        A=[[0.0, 1.0], [1.0, 0.0]],
        means=means,
        covs=covs,
        lambdas=[40.0, 40.0],
        d_max=3,
    )
    X = np.array([[-4.0]] * 3 + [[4.0]] * 3 + [[-4.0]] * 3)
    path, _ = hsmm_viterbi(hsmm, X)
    np.testing.assert_array_equal(path, [0] * 3 + [1] * 3 + [0] * 3)


def test_dmax_one_reduces_to_hmm_viterbi():
    rng = np.random.default_rng(2)
    hsmm = random_hsmm(K=3, d=2, d_max=1, rng=rng)
    hmm = GaussianHmm(pi=hsmm.pi, A=hsmm.A, means=hsmm.means, covs=hsmm.covs)
    X = rng.normal(size=(12, 2))
    hsmm_path, hsmm_score = hsmm_viterbi(hsmm, X)
    hmm_path, hmm_score = hmm_viterbi(hmm, X)
    np.testing.assert_array_equal(hsmm_path, hmm_path)
    assert abs(hsmm_score - hmm_score) < 1e-9


def test_runs_longer_than_dmax_still_decode():
    # a forced 9-frame run with d_max 3 decodes by chaining segments
    means = np.array([[-4.0], [4.0]])
    covs = np.array([[[0.3]], [[0.3]]])
    hsmm = Hsmm(
        pi=[0.5, 0.5], A=[[0.0, 1.0], [1.0, 0.0]], means=means, covs=covs,
        lambdas=[2.0, 2.0], d_max=3,
    )
    X = np.full((9, 1), -4.0)
    path, score = hsmm_viterbi(hsmm, X)
    assert np.isfinite(score)
    assert path.shape == (9,)


def test_duration_pmf_normalizes():
    log_pmf = duration_log_pmf(np.array([0.5, 3.0, 50.0]), 7)
    np.testing.assert_allclose(np.exp(log_pmf).sum(axis=1), 1.0, atol=1e-12)


def test_fit_truncated_poisson_inverts_mean():
    for d_max in (5, 20, 60):
        for target in (1.3, 2.5, d_max * 0.5, d_max * 0.9):
            lam = fit_truncated_poisson(target, d_max)
            log_pmf = duration_log_pmf(np.array([lam]), d_max)[0]
            mean = float(np.exp(log_pmf) @ np.arange(1, d_max + 1))
            assert abs(mean - target) < 1e-4


def sample_hsmm(hsmm, T, rng):
    X = np.empty((T, hsmm.means.shape[1]))
    dur_pmf = np.exp(duration_log_pmf(hsmm.lambdas, hsmm.d_max))
    t = 0
    state = rng.choice(hsmm.n_states, p=hsmm.pi)
    while t < T:
        d = int(rng.choice(np.arange(1, hsmm.d_max + 1), p=dur_pmf[state]))
        for _ in range(min(d, T - t)):
            X[t] = rng.multivariate_normal(hsmm.means[state], hsmm.covs[state])
            t += 1
            if t >= T:
                break
        probs = hsmm.A[state]
        if probs.sum() > 0:
            state = rng.choice(hsmm.n_states, p=probs)
    return X


def test_em_loglik_non_decreasing():
    rng = np.random.default_rng(3)
    truth = Hsmm(
        pi=[0.5, 0.5],
        A=[[0.0, 1.0], [1.0, 0.0]],
        means=[[-2.0, 0.0], [2.0, 0.5]],
        covs=np.stack([np.eye(2) * 0.3] * 2),
        lambdas=[4.0, 6.0],
        d_max=12,
    )
    seqs = [sample_hsmm(truth, 120, rng) for _ in range(3)]
    _, trace = hsmm_em_fit(seqs, K=2, iterations=12, seed=0, d_max=12)
    assert (np.diff(trace) >= -1e-6).all()


def test_em_recovers_means_up_to_permutation():
    rng = np.random.default_rng(4)
    truth = Hsmm(
        pi=[1.0, 0.0],
        A=[[0.0, 1.0], [1.0, 0.0]],
        means=[[-2.0], [2.0]],
        covs=np.array([[[0.2]], [[0.2]]]),
        lambdas=[5.0, 5.0],
        d_max=15,
    )
    seqs = [sample_hsmm(truth, 150, rng) for _ in range(4)]
    fitted, _ = hsmm_em_fit(seqs, K=2, iterations=15, seed=1, d_max=15)
    got = np.sort(fitted.means.ravel())
    np.testing.assert_allclose(got, [-2.0, 2.0], atol=0.25)


def test_one_state_em_rejects_sequences_longer_than_dmax_before_iterating(monkeypatch):
    # one state has no transition, so its segments, of at most d_max frames,
    # cannot cover a longer sequence: every path has probability 0
    def no_e_step(*args):
        raise AssertionError("E-step ran")

    monkeypatch.setattr(hsmm_module, "_posteriors", no_e_step)
    seqs = [np.zeros((5, 1)), np.arange(13.0)[:, None]]
    with pytest.raises(DegenerateDatasetError, match="13 frames .* d_max = 12"):
        hsmm_em_fit(seqs, K=1, iterations=3, seed=0, d_max=12)


def test_hsmm_rejects_nonzero_diagonal():
    with pytest.raises(Exception):
        Hsmm(
            pi=[0.5, 0.5], A=[[0.5, 0.5], [1.0, 0.0]],
            means=np.zeros((2, 1)), covs=np.stack([np.eye(1)] * 2),
            lambdas=[2.0, 2.0], d_max=5,
        )
