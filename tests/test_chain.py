"""The batched chain kernel against per-sequence loops and brute-force oracles."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from motionseg.numerics import finite_diff_check, pack_arrays, unpack_arrays
from motionseg.seqmodels import chain
from motionseg.seqmodels.crf import (
    LinearChainCrf,
    crf_features,
    crf_log_partition,
    crf_loglik_and_grad,
    crf_marginals,
    crf_train,
    crf_viterbi,
    new_crf,
)
from motionseg.seqmodels import hsmm as hsmm_module
from motionseg.seqmodels.hmm import (
    MIN_COVAR,
    GaussianHmm,
    _chain_args,
    gaussian_m_step,
    hmm_em_fit,
    hmm_forward_backward,
    hmm_viterbi,
    hmm_viterbi_batch,
    kmeans_plus_plus,
)
from motionseg.seqmodels.hsmm import (
    Hsmm,
    _posteriors as hsmm_batch_posteriors,
    _segment_scores,
    fit_truncated_poisson,
    hsmm_em_fit,
    hsmm_loglik,
    hsmm_posteriors,
    hsmm_viterbi,
    hsmm_viterbi_batch,
)

from test_crf import enumerate_paths, random_crf
from test_hmm import enumerate_logliks, random_hmm, sample_hmm
from test_hsmm import enumerate_segmentations, random_hsmm, sample_hsmm

lse = chain.logsumexp
ragged = st.lists(st.integers(1, 12), min_size=1, max_size=5)
seeds = st.integers(0, 2**32 - 1)


def loop_forward_backward(unary, log_trans, log_init):
    """One sequence, one timestep at a time, all in log space."""
    T, K = unary.shape
    la = np.empty((T, K))
    la[0] = log_init + unary[0]
    for t in range(1, T):
        la[t] = unary[t] + lse(la[t - 1][:, None] + log_trans, axis=0)
    logz = float(lse(la[T - 1]))
    lb = np.zeros((T, K))
    for t in range(T - 2, -1, -1):
        lb[t] = lse(log_trans + (unary[t + 1] + lb[t + 1])[None, :], axis=1)
    xi = np.zeros((K, K))
    for t in range(T - 1):
        xi += np.exp(la[t][:, None] + log_trans + (unary[t + 1] + lb[t + 1])[None, :] - logz)
    return np.exp(la + lb - logz), xi, logz


def loop_viterbi(unary, log_trans, log_init):
    T, K = unary.shape
    delta = log_init + unary[0]
    back = np.zeros((T, K), dtype=np.int64)
    for t in range(1, T):
        scores = delta[:, None] + log_trans
        back[t] = np.argmax(scores, axis=0)
        delta = scores[back[t], np.arange(K)] + unary[t]
    path = [int(np.argmax(delta))]
    for t in range(T - 1, 0, -1):
        path.append(int(back[t][path[-1]]))
    return np.array(path[::-1]), float(delta.max())


def random_chain(lengths, K, seed):
    rng = np.random.default_rng(seed)
    unary = [rng.normal(size=(n, K)) * 3.0 for n in lengths]
    return unary, rng.normal(size=(K, K)), rng.normal(size=K)


# more sequences than one pair_sum block holds
MANY = [int(n) for n in np.random.default_rng(7).integers(1, 13, size=2 * chain.BLOCK + 3)]


@settings(max_examples=40, deadline=None)
@given(lengths=ragged, K=st.integers(1, 4), seed=seeds)
@example(lengths=MANY, K=3, seed=1)
def test_forward_backward_matches_per_sequence_loop(lengths, K, seed):
    unary, log_trans, log_init = random_chain(lengths, K, seed)
    gamma, xi, logz = chain.forward_backward(
        chain.pad(np.vstack(unary), lengths), log_trans, lengths, log_init
    )
    xi_loop = np.zeros((K, K))
    for n, u in enumerate(unary):
        g, x, z = loop_forward_backward(u, log_trans, log_init)
        np.testing.assert_allclose(gamma[n, : len(u)], g, atol=1e-10)
        assert not gamma[n, len(u) :].any()
        assert abs(logz[n] - z) < 1e-9 * max(1.0, abs(z))
        xi_loop += x
    np.testing.assert_allclose(xi, xi_loop, atol=1e-9)
    assert abs(xi.sum() - sum(n - 1 for n in lengths)) < 1e-9


@settings(max_examples=40, deadline=None)
@given(lengths=ragged, K=st.integers(1, 4), seed=seeds)
def test_viterbi_matches_per_sequence_loop(lengths, K, seed):
    unary, log_trans, log_init = random_chain(lengths, K, seed)
    paths, best = chain.viterbi(chain.pad(np.vstack(unary), lengths), log_trans, lengths, log_init)
    for n, u in enumerate(unary):
        path, score = loop_viterbi(u, log_trans, log_init)
        np.testing.assert_array_equal(paths[n], path)
        assert best[n] == score


@settings(max_examples=40, deadline=None)
@given(lengths=ragged, K=st.integers(2, 4), seed=seeds)
@example(lengths=MANY, K=3, seed=2)
def test_exact_where_shifted_messages_underflow(lengths, K, seed):
    # unaries thousands of nats apart and forbidden transitions (log 0) make
    # the shifted matrix products underflow; results must still match the loop
    unary, log_trans, log_init = random_chain(lengths, K, seed)
    rng = np.random.default_rng(seed)
    unary = [u * 400.0 for u in unary]
    forbidden = rng.random((K, K)) < 0.4
    forbidden[np.arange(K), rng.integers(0, K, size=K)] = False
    log_trans = np.where(forbidden, chain.LOG_EPS, log_trans)
    padded = chain.pad(np.vstack(unary), lengths)
    gamma, xi, logz = chain.forward_backward(padded, log_trans, lengths, log_init)
    paths, best = chain.viterbi(padded, log_trans, lengths, log_init)
    xi_loop = np.zeros((K, K))
    for n, u in enumerate(unary):
        g, x, z = loop_forward_backward(u, log_trans, log_init)
        np.testing.assert_allclose(gamma[n, : len(u)], g, atol=1e-9)
        assert abs(logz[n] - z) < 1e-9 * max(1.0, abs(z))
        np.testing.assert_array_equal(paths[n], loop_viterbi(u, log_trans, log_init)[0])
        xi_loop += x
    np.testing.assert_allclose(xi, xi_loop, atol=1e-8)


@settings(max_examples=15, deadline=None)
@given(lengths=ragged, seed=seeds)
def test_hmm_batch_matches_enumeration(lengths, seed):
    rng = np.random.default_rng(seed)
    hmm = random_hmm(K=2, d=2, rng=rng)
    seqs = [rng.normal(size=(n, 2)) for n in lengths]
    _, _, logz = chain.forward_backward(*_chain_args(hmm, *chain.stack(seqs)))
    paths, best = hmm_viterbi_batch(hmm, seqs)
    for n, X in enumerate(seqs):
        total, best_score, best_path = enumerate_logliks(hmm, X)
        assert abs(logz[n] - total) < 1e-9
        assert abs(best[n] - best_score) < 1e-9
        np.testing.assert_array_equal(paths[n], best_path)


@settings(max_examples=15, deadline=None)
@given(lengths=ragged, seed=seeds)
def test_hsmm_batch_matches_enumeration(lengths, seed):
    rng = np.random.default_rng(seed)
    hsmm = random_hsmm(K=2, d=2, d_max=3, rng=rng)
    seqs = [rng.normal(size=(n, 2)) for n in lengths]
    loglik, gamma, *stats = hsmm_batch_posteriors(hsmm, *chain.stack(seqs))
    paths, best = hsmm_viterbi_batch(hsmm, seqs)
    singles = [hsmm_batch_posteriors(hsmm, *chain.stack([X])) for X in seqs]
    for n, X in enumerate(seqs):
        total, best_score, best_path = enumerate_segmentations(hsmm, X)
        assert abs(loglik[n] - total) < 1e-9
        assert abs(best[n] - best_score) < 1e-9
        np.testing.assert_array_equal(paths[n], best_path)
        np.testing.assert_allclose(gamma[n, : len(X)], singles[n][1][0], atol=1e-10)
        np.testing.assert_allclose(gamma[n, : len(X)].sum(axis=1), 1.0, atol=1e-9)
    for batched, parts in zip(stats, zip(*(s[2:] for s in singles))):  # xi, segments, frames
        np.testing.assert_allclose(batched, sum(parts), atol=1e-9)


def two_loop_posteriors(hsmm, X, lengths):
    """The HSMM E-step as it was before one loop carried both directions: a
    forward loop, then a backward loop that adds up the duration counts. Returns
    their row sums and first moments, the expected segments and frames of each state."""
    cumb, log_dur, log_pi, log_A = _segment_scores(hsmm, X, lengths)
    N, T, K = cumb.shape[0], cumb.shape[1] - 1, cumb.shape[2]
    D = min(hsmm.d_max, T)
    last = lengths - 1
    rev_dur = log_dur[:, D - 1 :: -1].T
    ls = np.empty((N, T, K))
    head = np.empty((N, T, K))
    head[:, 0] = log_pi
    for t in range(T):
        lo = max(0, t - D + 1)
        vals = head[:, lo : t + 1] + rev_dur[D - (t + 1 - lo) :] + cumb[:, t + 1, None]
        ls[:, t] = lse(vals, axis=1)
        if t + 1 < T:
            head[:, t + 1] = lse(ls[:, t, :, None] + log_A, axis=1) - cumb[:, t + 1]
    loglik = lse(ls[np.arange(N), last], axis=1)
    tail = np.empty((N, T, K))
    dur_counts = np.zeros((K, hsmm.d_max))
    starts, rest = head, np.zeros((N, K))
    for t in range(T - 1, -1, -1):
        edge = np.where(t == last, 0.0, chain.LOG_EPS)[:, None]
        tail[:, t] = cumb[:, t + 1] + np.where((t < last)[:, None], rest, edge)
        n = min(D, T - t)
        vals = tail[:, t : t + n] + log_dur[:, :n].T
        m = vals.max(axis=1)
        w = np.exp(vals - m[:, None])
        total = w.sum(axis=1)
        scale = np.exp(m + head[:, t] - loglik[:, None])
        dur_counts[:, :n] += np.einsum("ndk,nk->kd", w, scale)
        starts[:, t] = total * scale
        rest = lse(log_A + (np.log(total) + m - cumb[:, t])[:, None, :], axis=2)
    ends = np.exp(tail + ls - cumb[:, 1:] - loglik[:, None, None])
    xi = chain.pair_sum(ls, starts, log_A)
    gamma = np.cumsum(starts, axis=1)
    gamma[:, 1:] -= np.cumsum(ends, axis=1)[:, :-1]
    np.maximum(gamma, 0.0, out=gamma)
    gamma[~chain.valid(lengths, T)] = 0.0
    return loglik, gamma, xi, dur_counts.sum(axis=1), dur_counts @ np.arange(1, hsmm.d_max + 1)


@settings(max_examples=80, deadline=None)
@given(lengths=ragged, K=st.integers(1, 4), d_max=st.integers(1, 15), seed=seeds,
       scale=st.sampled_from([1.0, 20.0]))
@example(lengths=[1], K=3, d_max=4, seed=0, scale=1.0)
@example(lengths=[12, 1, 7], K=4, d_max=15, seed=3, scale=20.0)
@example(lengths=MANY, K=3, d_max=5, seed=4, scale=20.0)
def test_hsmm_one_loop_posteriors_match_two_loops(lengths, K, d_max, seed, scale):
    # d_max reaches past the longest sequence; at scale 20 the emission log
    # densities lie 400x further apart, and transitions and initial states are
    # forbidden at random, so messages underflow in both directions. One state
    # has no transition, so it can only explain a sequence of at most d_max frames.
    assume(K > 1 or max(lengths) <= d_max)
    rng = np.random.default_rng(seed)
    hsmm = random_hsmm(K=K, d=2, d_max=d_max, rng=rng)
    if K > 2:
        A = np.where(rng.random((K, K)) < 0.4, 0.0, hsmm.A)
        A[np.arange(K), (np.arange(K) + 1) % K] += 0.1  # every row keeps an exit
        np.fill_diagonal(A, 0.0)
        hsmm.A = A / A.sum(axis=1, keepdims=True)
    hsmm.pi = np.where(rng.random(K) < 0.3, 0.0, hsmm.pi) + np.eye(K)[0] * 0.1
    hsmm.pi /= hsmm.pi.sum()
    hsmm = Hsmm(pi=hsmm.pi, A=hsmm.A, means=hsmm.means * scale, covs=hsmm.covs,
                lambdas=hsmm.lambdas, d_max=d_max)
    X, lens = chain.stack([rng.normal(size=(n, 2)) * scale for n in lengths])
    got, want = hsmm_batch_posteriors(hsmm, X, lens), two_loop_posteriors(hsmm, X, lens)
    for name, a, b in zip(("loglik", "gamma", "xi", "segments", "frames"), got, want, strict=True):
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-10, err_msg=name)


# The probability-space recursions against the log-space loops they fall back to.


@settings(max_examples=60, deadline=None)
@given(lengths=ragged, K=st.integers(1, 5), seed=seeds,
       case=st.sampled_from(["all reachable", "unreachable column", "underflow"]))
@example(lengths=MANY, K=5, seed=3, case="all reachable")
@example(lengths=MANY, K=3, seed=5, case="underflow")
def test_scaled_chain_matches_log_loop(lengths, K, seed, case):
    # the log loop against the per-sequence oracle, then the scaled posteriors
    # against the log loop wherever the scaled ones vouch for their result
    assume(K > 1 or case == "all reachable")
    unary, log_trans, log_init = random_chain(lengths, K, seed)
    if case == "unreachable column":
        log_trans[:, np.random.default_rng(seed).integers(K)] = chain.LOG_EPS
    if case == "underflow":  # only state 0 enters state 0, from far below the rest
        log_trans[1:, 0] = chain.LOG_EPS
        for u in unary:
            u[:, 0] -= 2000.0
    padded = chain.pad(np.vstack(unary), lengths)
    logged = chain.log_posteriors(padded, log_trans, lengths, log_init)
    xi_loop = np.zeros((K, K))
    for n, u in enumerate(unary):
        g, x, z = loop_forward_backward(u, log_trans, log_init)
        np.testing.assert_allclose(logged[0][n, : len(u)], g, rtol=0, atol=1e-10, err_msg="gamma")
        assert not logged[0][n, len(u) :].any()
        assert abs(logged[1][n] - z) < 1e-9 * max(1.0, abs(z))
        xi_loop += x
    np.testing.assert_allclose(chain.pair_sum(logged[2], logged[0], log_trans), xi_loop, rtol=0, atol=1e-9,
                               err_msg="xi")
    scaled = chain.scaled_posteriors(padded, log_trans, lengths, log_init)
    if scaled is not None:
        np.testing.assert_allclose(scaled[0], logged[0], rtol=0, atol=1e-9, err_msg="gamma")
        np.testing.assert_allclose(scaled[1], logged[1], rtol=1e-9, err_msg="logz")
        np.testing.assert_allclose(chain.pair_sum(scaled[2], scaled[0], log_trans), xi_loop, rtol=0, atol=1e-9,
                                   err_msg="xi")


@settings(max_examples=60, deadline=None)
@given(lengths=ragged, K=st.integers(1, 5), d_max=st.integers(1, 15), seed=seeds)
@example(lengths=MANY, K=5, d_max=6, seed=4)
def test_scaled_hsmm_matches_log_loop(lengths, K, d_max, seed):
    assume(K > 1 or max(lengths) <= d_max)  # one state explains no sequence longer than d_max
    rng = np.random.default_rng(seed)
    hsmm = random_hsmm(K=K, d=2, d_max=d_max, rng=rng)
    X, lens = chain.stack([rng.normal(size=(n, 2)) for n in lengths])
    cumb, log_dur, log_pi, log_A = _segment_scores(hsmm, X, lens)
    scaled = hsmm_module.scaled_messages(hsmm, X, lens, log_dur, stats=True)
    assume(scaled is not None)
    logged = hsmm_module.log_messages(cumb, log_dur, log_pi, log_A, lens)
    np.testing.assert_allclose(scaled[0], logged[0], rtol=1e-9, err_msg="loglik")
    for name, a, b in zip(("starts", "ends"), scaled[1:3], logged[1:3]):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-9, err_msg=name)
    np.testing.assert_allclose(chain.pair_sum(scaled[3], scaled[1], log_A),
                               chain.pair_sum(logged[3], logged[1], log_A), rtol=0, atol=1e-9, err_msg="xi")


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call; returns the calls."""
    calls, fn = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or fn(*args))
    return calls


def test_chain_falls_back_where_the_reachable_state_underflows(monkeypatch):
    # state 1 holds each frame's largest emission but cannot be entered; state 0,
    # the only reachable one, scores 1000 nats below it, so its scaled messages are 0
    unary = np.zeros((1, 6, 2))
    unary[..., 0] = -1000.0
    args = (unary, np.array([[0.0, chain.LOG_EPS], [0.0, 0.0]]), [6], np.array([0.0, chain.LOG_EPS]))
    calls = counting(monkeypatch, chain, "log_posteriors")
    got = chain.posteriors(*args)
    assert len(calls) == 1
    for a, b in zip(got, chain.log_posteriors(*args)):
        np.testing.assert_array_equal(a, b)
    assert got[1][0] == -6000.0


def test_hsmm_falls_back_where_the_reachable_states_underflow(monkeypatch):
    # state 2 lies on the data but cannot be entered; states 0 and 1 score about
    # 450 nats below it at every frame, so every segment weight they have is flushed
    model = Hsmm(pi=[0.5, 0.5, 0.0], A=[[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0]],
                 means=[[30.0], [-30.0], [0.0]], covs=np.ones((3, 1, 1)), lambdas=[2.0, 3.0, 2.0], d_max=4)
    X, lengths = chain.stack([np.zeros((7, 1)), np.zeros((4, 1))])
    calls = counting(monkeypatch, hsmm_module, "log_messages")
    got = hsmm_batch_posteriors(model, X, lengths)
    assert len(calls) == 1
    monkeypatch.setattr(hsmm_module, "scaled_messages", lambda *args: None)
    for a, b in zip(got, hsmm_batch_posteriors(model, X, lengths)):  # the log loop alone
        np.testing.assert_array_equal(a, b)
    assert np.isfinite(got[0]).all() and (got[0] < -1000.0).all()


def test_fits_and_predictions_take_the_scaled_path(monkeypatch):
    def refuse(*args):
        raise AssertionError("the log-space fallback ran")

    monkeypatch.setattr(chain, "log_posteriors", refuse)
    monkeypatch.setattr(hsmm_module, "log_messages", refuse)
    rng = np.random.default_rng(0)
    truth = random_hmm(K=3, d=2, rng=rng)
    seqs = [sample_hmm(truth, n, rng)[0] for n in (25, 40, 31, 18)]
    hmm, _ = hmm_em_fit(seqs, K=3, iterations=3, seed=0)
    hsmm, _ = hsmm_em_fit(seqs, K=3, iterations=3, seed=0, d_max=8)
    crf, _ = crf_train([(X, rng.integers(1, 4, size=len(X))) for X in seqs], num_labels=3,
                       iterations=3, num_basis=4, seed=0)
    for X in seqs:
        hmm_forward_backward(hmm, X)
        hsmm_posteriors(hsmm, X)
        crf_marginals(crf, X)


def test_hsmm_viterbi_ties_resolve_to_the_shortest_segment():
    # Each frame scores -2**59 under both states, which absorbs every duration,
    # initial and transition term: all segmentations tie exactly. The decode keeps
    # the first maximum at every choice, so segments are one frame long, the
    # last segment is state 0, and the states alternate back from it.
    tie = Hsmm(pi=[0.5, 0.5], A=[[0.0, 1.0], [1.0, 0.0]], means=[[0.0], [0.0]],
               covs=np.ones((2, 1, 1)), lambdas=[2.0, 3.0], d_max=3)
    seqs = [np.full((n, 1), 2.0**30) for n in (5, 3, 1, 4)]
    paths, best = hsmm_viterbi_batch(tie, seqs)
    expected = [[0, 1, 0, 1, 0], [0, 1, 0], [0], [1, 0, 1, 0]]
    assert [p.tolist() for p in paths] == expected
    np.testing.assert_array_equal(best, -(2.0**59) * np.array([5, 3, 1, 4]))


@settings(max_examples=15, deadline=None)
@given(lengths=ragged, seed=seeds)
def test_crf_batch_matches_enumeration(lengths, seed):
    rng = np.random.default_rng(seed)
    crf = random_crf(C=2, d=2, E=4, rng=rng)
    seqs = [rng.normal(size=(n, 2)) for n in lengths]
    X, lens = chain.stack(seqs)
    scores = chain.pad(crf_features(crf, X) @ crf.unary.T, lens)
    marg, _, logz = chain.forward_backward(scores, crf.transitions, lens)
    paths, _ = chain.viterbi(scores, crf.transitions, lens)
    for n, X in enumerate(seqs):
        total, _, best_path = enumerate_paths(crf, X)
        assert abs(logz[n] - total) < 1e-9
        np.testing.assert_array_equal(paths[n] + 1, best_path)
        np.testing.assert_allclose(marg[n, : len(X)], crf_marginals(crf, X), atol=1e-10)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_em_monotone_on_ragged_sequences(seed):
    rng = np.random.default_rng(seed)
    hmm = random_hmm(K=3, d=2, rng=rng)
    seqs = [sample_hmm(hmm, int(n), rng)[0] for n in rng.integers(1, 60, size=5)]
    _, trace = hmm_em_fit(seqs, K=3, iterations=10, seed=seed)
    assert (np.diff(trace) >= -1e-6).all()
    truth = Hsmm(
        pi=[0.5, 0.5], A=[[0.0, 1.0], [1.0, 0.0]],
        means=[[-2.0, 0.0], [2.0, 0.5]], covs=np.stack([np.eye(2) * 0.3] * 2),
        lambdas=[4.0, 6.0], d_max=12,
    )
    seqs = [sample_hsmm(truth, int(n), rng) for n in rng.integers(1, 60, size=5)]
    _, trace = hsmm_em_fit(seqs, K=2, iterations=10, seed=seed, d_max=12)
    assert (np.diff(trace) >= -1e-6).all()


def init_gaussian_hmm_loop(sequences, K, seed):
    """The pooled k-means++ start of both fitters, stacking its own copy of the corpus."""
    pooled = np.vstack([np.atleast_2d(s) for s in sequences])
    means = kmeans_plus_plus(pooled, K, np.random.default_rng(seed))
    cov = np.atleast_2d(np.cov(pooled, rowvar=False, bias=True)) + MIN_COVAR * np.eye(pooled.shape[1])
    return GaussianHmm(pi=np.full(K, 1.0 / K), A=np.full((K, K), 1.0 / K), means=means,
                       covs=np.repeat(cov[None], K, axis=0))


def hmm_em_fit_loop(sequences, K, iterations, seed):
    """Baum-Welch as it was written before the HMM and the HSMM shared one EM loop."""
    seqs = [np.atleast_2d(np.asarray(s, dtype=np.float64)) for s in sequences]
    hmm = init_gaussian_hmm_loop(seqs, K, seed)
    X, lengths = chain.stack(seqs)
    trace = []
    for _ in range(iterations):
        gamma, xi, logz = chain.forward_backward(*_chain_args(hmm, X, lengths))
        trace.append(float(logz.sum()))
        first = gamma[:, 0].sum(axis=0)
        means, covs = gaussian_m_step(X, gamma[chain.valid(lengths, gamma.shape[1])])
        pi = first / first.sum()
        row = xi.sum(axis=1)
        A = np.where(row[:, None] > 0, xi / np.maximum(row, 1e-300)[:, None], 1.0 / K)
        A /= A.sum(axis=1, keepdims=True)
        hmm = GaussianHmm(pi=pi, A=A, means=means, covs=covs)
    trace.append(float(chain.posteriors(*_chain_args(hmm, X, lengths))[1].sum()))
    return hmm, trace


def hsmm_em_fit_loop(sequences, K, iterations, seed, d_max):
    """The explicit-duration EM as it was written before it shared the HMM's loop."""
    seqs = [np.atleast_2d(np.asarray(s, dtype=np.float64)) for s in sequences]
    base = init_gaussian_hmm_loop(seqs, K, seed)
    avg_t = np.mean([s.shape[0] for s in seqs])
    lam0 = float(np.clip(avg_t / (2.0 * K), 1.5, max(d_max / 2.0, 1.5)))
    A = np.full((K, K), 1.0 / (K - 1)) if K > 1 else np.zeros((1, 1))
    np.fill_diagonal(A, 0.0)
    hsmm = Hsmm(pi=base.pi, A=A, means=base.means, covs=base.covs,
                lambdas=np.full(K, lam0), d_max=d_max)
    X, lengths = chain.stack(seqs)
    trace = []
    for _ in range(iterations):
        loglik, gamma, xi_acc, segments, frames = hsmm_batch_posteriors(hsmm, X, lengths)
        trace.append(float(loglik.sum()))
        rho_acc = gamma[:, 0].sum(axis=0)
        means, covs = gaussian_m_step(X, gamma[chain.valid(lengths, gamma.shape[1])])
        pi = rho_acc / rho_acc.sum()
        np.fill_diagonal(xi_acc, 0.0)
        rows = xi_acc.sum(axis=1)
        if K > 1:
            uniform = np.full((K, K), 1.0 / (K - 1))
            np.fill_diagonal(uniform, 0.0)
            A = np.where(rows[:, None] > 1e-12, xi_acc / np.maximum(rows, 1e-300)[:, None], uniform)
            A /= A.sum(axis=1, keepdims=True)
            np.fill_diagonal(A, 0.0)
            A /= A.sum(axis=1, keepdims=True)
        else:
            A = np.zeros((1, 1))
        mean_dur = frames / np.maximum(segments, 1e-300)
        lambdas = np.where(segments > 1e-12, fit_truncated_poisson(mean_dur, d_max), hsmm.lambdas)
        hsmm = Hsmm(pi=pi, A=A, means=means, covs=covs, lambdas=lambdas, d_max=d_max)
    trace.append(float(hsmm_batch_posteriors(hsmm, X, lengths)[0].sum()))
    return hsmm, trace


@settings(max_examples=40, deadline=None)
@given(lengths=st.lists(st.integers(1, 30), min_size=1, max_size=6), K=st.integers(1, 4),
       d_max=st.sampled_from([1, 3, 12, 40]), iterations=st.integers(0, 4), seed=seeds)
@example(lengths=[30, 1, 17], K=1, d_max=40, iterations=3, seed=5)
def test_em_fits_match_their_own_loops_bit_for_bit(lengths, K, d_max, iterations, seed):
    assume(sum(lengths) >= K)
    rng = np.random.default_rng(seed)
    centres = rng.normal(size=(3, 2)) * 2.0
    seqs = [centres[rng.integers(3, size=n)] + rng.normal(size=(n, 2)) for n in lengths]
    fits = [(hmm_em_fit(seqs, K, iterations, seed), hmm_em_fit_loop(seqs, K, iterations, seed),
             ("pi", "A", "means", "covs"))]
    if K > 1 or max(lengths) <= d_max:  # one state explains no sequence longer than d_max
        fits.append((hsmm_em_fit(seqs, K, iterations, seed, d_max),
                     hsmm_em_fit_loop(seqs, K, iterations, seed, d_max),
                     ("pi", "A", "means", "covs", "lambdas")))
    for (got, got_trace), (want, want_trace), names in fits:
        assert len(got_trace) == iterations + 1
        np.testing.assert_array_equal(got_trace, want_trace)
        for name in names:
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)


def test_crf_gradient_on_ragged_sequences():
    rng = np.random.default_rng(11)
    C, d, E = 3, 2, 4
    crf = random_crf(C, d, E, rng=rng)
    sequences = [(rng.normal(size=(n, d)), rng.integers(1, C + 1, size=n)) for n in (1, 5, 2, 7)]
    flat0, shapes = pack_arrays([crf.unary, crf.transitions])

    def fn(flat):
        unary, trans = unpack_arrays(flat, shapes)
        trial = LinearChainCrf(projection=crf.projection, unary=unary, transitions=trans)
        ll, gu, gt = crf_loglik_and_grad(trial, sequences)
        return -ll, -pack_arrays([gu, gt])[0]

    assert finite_diff_check(fn, flat0) < 1e-4


EMPTY = np.zeros((0, 2))
_HMM = GaussianHmm(pi=[0.5, 0.5], A=[[0.9, 0.1], [0.2, 0.8]],
                   means=[[0.0, 0.0], [1.0, 1.0]], covs=np.stack([np.eye(2)] * 2))
_HSMM = Hsmm(pi=[0.5, 0.5], A=[[0.0, 1.0], [1.0, 0.0]], means=_HMM.means, covs=_HMM.covs,
             lambdas=[2.0, 3.0], d_max=4)
_CRF = new_crf(3, 2, num_basis=4, seed=0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: hmm_forward_backward(_HMM, EMPTY),
        lambda: hmm_viterbi(_HMM, EMPTY),
        lambda: crf_marginals(_CRF, EMPTY),
        lambda: crf_viterbi(_CRF, EMPTY),
        lambda: crf_log_partition(_CRF, EMPTY),
        lambda: crf_loglik_and_grad(_CRF, [(np.ones((3, 2)), [1, 2, 3]), (EMPTY, [])]),
        lambda: hsmm_loglik(_HSMM, EMPTY),
        lambda: hsmm_viterbi(_HSMM, EMPTY),
        lambda: hsmm_posteriors(_HSMM, EMPTY),
        lambda: chain.forward_backward(np.zeros((2, 3, 2)), np.zeros((2, 2)), [3, 0]),
        lambda: chain.viterbi(np.zeros((2, 3, 2)), np.zeros((2, 2)), [0, 3]),
    ],
    ids=[
        "hmm_forward_backward", "hmm_viterbi", "crf_marginals", "crf_viterbi",
        "crf_log_partition", "crf_loglik_and_grad", "hsmm_loglik", "hsmm_viterbi",
        "hsmm_posteriors", "chain.forward_backward", "chain.viterbi",
    ],
)
def test_empty_sequence_rejected(call):
    with pytest.raises(ValueError, match="empty sequence"):
        call()
