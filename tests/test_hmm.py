import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionseg.errors import ModelInvalidError, ShapeError
from motionseg.seqmodels.hmm import (
    EMISSION_BLOCK,
    GaussianHmm,
    _gaussian_logpdfs,
    emission_log_probs,
    gaussian_factors,
    hmm_em_fit,
    hmm_forward_backward,
    hmm_viterbi,
)
from motionseg.seqmodels.hsmm import Hsmm


def gaussian_logpdf(X, mean, cov) -> np.ndarray:
    """Oracle: log density of the rows of X under one N(mean, cov)."""
    return _gaussian_logpdfs(X, np.atleast_2d(mean), *gaussian_factors(np.asarray(cov)[None]))[:, 0]


def random_hmm(K, d, rng):
    pi = rng.dirichlet(np.ones(K))
    A = rng.dirichlet(np.ones(K), size=K)
    means = rng.normal(size=(K, d)) * 1.5
    covs = []
    for _ in range(K):
        m = rng.normal(size=(d, d)) * 0.4
        covs.append(m @ m.T + 0.5 * np.eye(d))
    return GaussianHmm(pi=pi, A=A, means=means, covs=np.stack(covs))


def enumerate_logliks(hmm, X):
    """Independent oracle: sum / max joint probability over every state path."""
    logb = emission_log_probs(hmm, X)
    T, K = logb.shape
    log_pi = np.log(hmm.pi)
    log_A = np.log(hmm.A)
    scores = []
    for path in itertools.product(range(K), repeat=T):
        s = log_pi[path[0]] + logb[0, path[0]]
        for t in range(1, T):
            s += log_A[path[t - 1], path[t]] + logb[t, path[t]]
        scores.append((s, path))
    arr = np.array([s for s, _ in scores])
    m = arr.max()
    total = m + np.log(np.sum(np.exp(arr - m)))
    best_score, best_path = max(scores, key=lambda item: item[0])
    return total, best_score, np.array(best_path)


def test_forward_likelihood_matches_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(15):
        hmm = random_hmm(K=2, d=2, rng=rng)
        X = rng.normal(size=(4, 2))
        _, loglik = hmm_forward_backward(hmm, X)
        oracle, _, _ = enumerate_logliks(hmm, X)
        assert abs(loglik - oracle) < 1e-9


def test_viterbi_matches_enumeration():
    rng = np.random.default_rng(1)
    for _ in range(10):
        hmm = random_hmm(K=3, d=2, rng=rng)
        X = rng.normal(size=(6, 2))
        path, score = hmm_viterbi(hmm, X)
        _, best_score, best_path = enumerate_logliks(hmm, X)
        assert abs(score - best_score) < 1e-9
        np.testing.assert_array_equal(path, best_path)


def test_single_state_posteriors_and_loglik():
    rng = np.random.default_rng(2)
    mean = np.array([0.5, -0.5])
    cov = np.array([[1.0, 0.2], [0.2, 0.8]])
    hmm = GaussianHmm(pi=[1.0], A=[[1.0]], means=[mean], covs=[cov])
    X = rng.normal(size=(7, 2))
    gamma, loglik = hmm_forward_backward(hmm, X)
    np.testing.assert_allclose(gamma, 1.0)
    np.testing.assert_allclose(loglik, gaussian_logpdf(X, mean, cov).sum(), rtol=1e-12)
    path, _ = hmm_viterbi(hmm, X)
    assert (path == 0).all()


def test_single_frame_posterior_proportional_to_pi_times_emission():
    rng = np.random.default_rng(3)
    hmm = random_hmm(K=3, d=2, rng=rng)
    X = rng.normal(size=(1, 2))
    gamma, _ = hmm_forward_backward(hmm, X)
    logb = emission_log_probs(hmm, X)[0]
    expected = hmm.pi * np.exp(logb - logb.max())
    expected /= expected.sum()
    np.testing.assert_allclose(gamma[0], expected, rtol=1e-9)


def test_posterior_rows_sum_to_one():
    rng = np.random.default_rng(4)
    hmm = random_hmm(K=4, d=3, rng=rng)
    X = rng.normal(size=(30, 3))
    gamma, _ = hmm_forward_backward(hmm, X)
    np.testing.assert_allclose(gamma.sum(axis=1), 1.0, atol=1e-9)


def test_viterbi_beats_random_paths():
    rng = np.random.default_rng(5)
    hmm = random_hmm(K=3, d=2, rng=rng)
    X = rng.normal(size=(20, 2))
    logb = emission_log_probs(hmm, X)
    _, best = hmm_viterbi(hmm, X)

    def score(path):
        s = np.log(hmm.pi[path[0]]) + logb[0, path[0]]
        for t in range(1, len(path)):
            s += np.log(hmm.A[path[t - 1], path[t]]) + logb[t, path[t]]
        return s

    for _ in range(1000):
        path = rng.integers(0, 3, size=20)
        assert score(path) <= best + 1e-9


def test_deterministic_chain_follows_emission_argmax():
    # near-identity transitions but emissions that dominate the decision
    means = np.array([[-5.0], [5.0]])
    covs = np.array([[[0.5]], [[0.5]]])
    hmm = GaussianHmm(pi=[0.5, 0.5], A=[[0.5, 0.5], [0.5, 0.5]], means=means, covs=covs)
    X = np.array([[-5.0], [5.0], [5.0], [-5.0]])
    path, _ = hmm_viterbi(hmm, X)
    np.testing.assert_array_equal(path, [0, 1, 1, 0])


def sample_hmm(hmm, T, rng):
    states = np.empty(T, dtype=int)
    X = np.empty((T, hmm.dim))
    states[0] = rng.choice(hmm.n_states, p=hmm.pi)
    for t in range(T):
        if t:
            states[t] = rng.choice(hmm.n_states, p=hmm.A[states[t - 1]])
        X[t] = rng.multivariate_normal(hmm.means[states[t]], hmm.covs[states[t]])
    return X, states


def test_em_recovers_two_state_model():
    rng = np.random.default_rng(6)
    truth = GaussianHmm(
        pi=[0.6, 0.4],
        A=[[0.9, 0.1], [0.2, 0.8]],
        means=[[-2.0, 0.0], [2.0, 1.0]],
        covs=np.stack([np.eye(2) * 0.3, np.eye(2) * 0.3]),
    )
    X, _ = sample_hmm(truth, 5000, rng)
    fitted, trace = hmm_em_fit([X], K=2, iterations=25, seed=0)
    # match states to truth by nearest mean (permutation-invariant)
    perms = [(0, 1), (1, 0)]
    errs = [
        max(
            np.linalg.norm(fitted.means[p[0]] - truth.means[0]),
            np.linalg.norm(fitted.means[p[1]] - truth.means[1]),
        )
        for p in perms
    ]
    assert min(errs) < 0.1
    diffs = np.diff(trace)
    assert (diffs >= -1e-6).all()


def test_em_single_state_recovers_pooled_statistics():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(400, 3)) @ np.diag([1.0, 0.5, 2.0]) + np.array([1.0, -1.0, 0.5])
    fitted, _ = hmm_em_fit([X], K=1, iterations=2, seed=0)
    np.testing.assert_allclose(fitted.means[0], X.mean(axis=0), atol=1e-8)
    pooled = np.cov(X, rowvar=False, bias=True) + 1e-4 * np.eye(3)
    np.testing.assert_allclose(fitted.covs[0], pooled, atol=1e-8)


def test_em_rejects_empty_input():
    with pytest.raises(ValueError):
        hmm_em_fit([], K=2, iterations=1, seed=0)


def test_em_monotone_on_multiple_sequences():
    rng = np.random.default_rng(9)
    seqs = [rng.normal(size=(60, 2)) + rng.normal(size=2) for _ in range(4)]
    _, trace = hmm_em_fit(seqs, K=3, iterations=15, seed=1)
    assert (np.diff(trace) >= -1e-6).all()


MEANS2 = [[0.0, 0.0], [1.0, 1.0]]
gaussian_models = pytest.mark.parametrize(
    "build",
    [
        lambda covs: GaussianHmm(pi=[0.5, 0.5], A=[[0.9, 0.1], [0.2, 0.8]], means=MEANS2,
                                 covs=covs),
        lambda covs: Hsmm(pi=[0.5, 0.5], A=[[0.0, 1.0], [1.0, 0.0]], means=MEANS2, covs=covs,
                          lambdas=[2.0, 3.0], d_max=4),
    ],
    ids=["hmm", "hsmm"],
)


@gaussian_models
def test_non_positive_definite_covariance_rejected_at_build(build):
    covs = np.stack([np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]])])  # eigenvalues 3, -1
    with pytest.raises(ModelInvalidError, match="not positive definite"):
        build(covs)


@pytest.mark.parametrize(
    "build",
    [
        lambda: GaussianHmm(pi=[0.5, 0.5], A=[[0.9, 0.1], [0.2, 0.8]], means=MEANS2,
                            covs=np.stack([np.eye(3)] * 2)),
        lambda: Hsmm(pi=[0.5, 0.5], A=[[0.0, 1.0], [1.0, 0.0]], means=np.zeros((3, 3)),
                     covs=np.stack([np.eye(3)] * 2), lambdas=[2.0, 3.0], d_max=4),
    ],
    ids=["hmm_means_d2_covs_d3", "hsmm_means_of_3_states_covs_of_2"],
)
def test_means_and_covariances_of_mismatched_shapes_rejected_at_build(build):
    with pytest.raises(ShapeError, match="parameter shapes disagree"):
        build()


@gaussian_models
def test_covariances_are_a_read_only_copy(build):
    covs = np.stack([np.eye(2), np.eye(2) * 2.0])
    model = build(covs)
    with pytest.raises(ValueError, match="read-only"):
        model.covs[0, 0, 0] = 5.0
    covs[0, 0, 0] = 5.0  # the caller's array stays writable and apart from the model
    assert model.covs[0, 0, 0] == 1.0


@gaussian_models
def test_held_factors_match_fresh_factorisation_bit_for_bit(build):
    rng = np.random.default_rng(12)
    m = rng.normal(size=(2, 2, 2))
    model = build(m @ m.transpose(0, 2, 1) + 0.3 * np.eye(2))
    X = rng.normal(size=(9, 2))
    fresh = _gaussian_logpdfs(X, model.means, *gaussian_factors(model.covs.copy()))
    np.testing.assert_array_equal(emission_log_probs(model, X), fresh)


def per_state_logpdfs(X, means, covs):
    """Reference: one Cholesky solve per state, (F, K) log densities."""
    d = X.shape[1]
    out = np.empty((X.shape[0], len(means)))
    for k, (mean, cov) in enumerate(zip(means, covs)):
        chol = np.linalg.cholesky(cov)
        z = np.linalg.solve(chol, (X - mean).T)
        logdet = 2.0 * np.log(np.diag(chol)).sum()
        out[:, k] = -0.5 * (np.sum(z**2, axis=0) + d * np.log(2.0 * np.pi) + logdet)
    return out


@settings(max_examples=40, deadline=None)
@given(
    K=st.sampled_from([1, 2, 5]),
    d=st.sampled_from([1, 2, 3]),
    blocks_plus=st.sampled_from([(0, 1), (1, -1), (1, 0), (1, 1), (3, 7)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_emissions_match_per_state_loop(K, d, blocks_plus, seed):
    blocks, plus = blocks_plus  # frames: 1, block - 1, block, block + 1, 3 block + 7
    F = blocks * (EMISSION_BLOCK // (K * d)) + plus
    rng = np.random.default_rng(seed)
    m = rng.uniform(-1.0, 1.0, size=(K, d, d))
    covs = m @ m.transpose(0, 2, 1) + np.eye(d)  # log-determinant >= 0: no cancellation to 0
    means = rng.uniform(-3.0, 3.0, size=(K, d))
    X = rng.uniform(-3.0, 3.0, size=(F, d))
    got = _gaussian_logpdfs(X, means, *gaussian_factors(covs))
    np.testing.assert_allclose(got, per_state_logpdfs(X, means, covs), rtol=1e-12, atol=0)


def test_emissions_allocate_one_block_not_a_frames_by_states_by_dim_table():
    K, d, F = 30, 16, 5000
    rng = np.random.default_rng(4)
    covs = np.repeat(np.eye(d)[None], K, axis=0)
    means, X = rng.normal(size=(K, d)), rng.normal(size=(F, d))
    factors = gaussian_factors(covs)
    tracemalloc.start()
    try:
        out = _gaussian_logpdfs(X, means, *factors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output plus two block-sized buffers; an (F, K, d) temporary alone is 19.2 MB
    assert peak < out.nbytes + 2 * EMISSION_BLOCK * 8
    assert F * K * d * 8 > 8 * peak
