"""The chain and HSMM Viterbi decoders against their earlier, per-step-vectorised
forms, kept here verbatim as references: paths and scores must agree bit for bit."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motionseg.seqmodels import chain
from motionseg.seqmodels import hsmm as hsmm_module
from motionseg.seqmodels.hsmm import Hsmm, _segment_scores, duration_log_pmf, hsmm_viterbi_batch

from test_hsmm import random_hsmm

ragged = st.lists(st.integers(1, 12), min_size=1, max_size=5)
seeds = st.integers(0, 2**32 - 1)
cases = st.sampled_from(["random", "forbidden", "ties"])


def reference_viterbi(log_unary, log_trans, lengths, log_init=None):
    """chain.viterbi as one set of batch-wide numpy calls per step, forward and back."""
    N, T, K = log_unary.shape
    chain.check_lengths(lengths)
    last = np.asarray(lengths) - 1
    done = int(last.min())  # from here on some sequences have ended
    delta = log_unary[:, 0] if log_init is None else log_init + log_unary[:, 0]
    back = np.zeros((T, N, K), dtype=np.int64)
    into = np.ascontiguousarray(log_trans.T)  # into[k, j] = log_trans[j, k]
    rows, cols = np.arange(N), np.arange(K)
    for t in range(1, T):  # a finished sequence keeps its last delta
        scores = delta[:, None, :] + into  # (N, next, previous): argmax runs along memory
        back[t] = prev = scores.argmax(axis=2)
        new = scores[rows[:, None], cols, prev] + log_unary[:, t]  # the max, gathered
        delta = new if t <= done else np.where((t <= last)[:, None], new, delta)
    state, best = delta.argmax(axis=1), delta.max(axis=1)
    path = np.zeros((T, N), dtype=np.int64)
    for t in range(T - 1, -1, -1):
        path[t] = state
        prev = back[t, rows, state]
        state = prev if t <= done else np.where(t <= last, prev, state)
    return [p[:n] for p, n in zip(path.T, lengths)], best


def reference_hsmm_viterbi_batch(hsmm, sequences):
    """hsmm_viterbi_batch over sequence-major tables, each step's window reversed."""
    X, lengths = chain.stack(sequences)
    cumb, log_dur, log_pi, log_A = _segment_scores(hsmm, X, lengths)
    N, T, K = cumb.shape[0], cumb.shape[1] - 1, cumb.shape[2]
    D = min(hsmm.d_max, T)
    rev_dur = log_dur[:, D - 1 :: -1].T  # (D, K), row i is duration D - i
    final = np.empty((N, K))  # best score of a segment of k ending each sequence
    best_in = np.empty((N, T + 1, K))
    prev_state = np.zeros((N, T + 1, K), dtype=np.int32)
    best_dur = np.zeros((N, T, K), dtype=np.int32)
    best_in[:, 0] = log_pi
    into = np.ascontiguousarray(log_A.T)  # into[k, j] = log_A[j, k]
    done = int(lengths.min()) - 1  # from here on some sequences have ended
    rows, cols = np.arange(N)[:, None], np.arange(K)  # gather the entry at an argmax
    for t in range(T):
        starts = slice(max(0, t - D + 1), t + 1)
        width = starts.stop - starts.start
        vals = best_in[:, starts] + rev_dur[D - width :] + (cumb[:, t + 1, None] - cumb[:, starts])
        vals = vals[:, ::-1]  # durations 1, 2, ...: argmax resolves a tie to the shortest
        pick = vals.argmax(axis=1)
        vs = vals[rows, pick, cols]
        if t >= done:
            final[t == lengths - 1] = vs[t == lengths - 1]
        best_dur[:, t] = pick + 1
        scores = vs[:, None, :] + into  # (N, next, previous): argmax runs along memory
        prev_state[:, t + 1] = prev = scores.argmax(axis=2)
        best_in[:, t + 1] = scores[rows, cols, prev]

    paths = []
    for n, length in enumerate(lengths):
        path = np.empty(length, dtype=np.int64)
        k, t = int(np.argmax(final[n])), length - 1
        while t >= 0:
            s = t - int(best_dur[n, t, k]) + 1
            path[s : t + 1] = k
            k = int(prev_state[n, s, k])  # unused once s == 0
            t = s - 1
        paths.append(path)
    return paths, final.max(axis=1)


def assert_same_decode(got, ref):
    paths, best = got
    ref_paths, ref_best = ref
    assert len(paths) == len(ref_paths)
    for p, q in zip(paths, ref_paths):
        assert p.dtype == q.dtype and p.tolist() == q.tolist()
    assert best.dtype == ref_best.dtype and best.tobytes() == ref_best.tobytes()


def chain_case(lengths, K, seed, case):
    """Padded unaries (N, T, K), log transitions and log initial terms (or None)."""
    rng = np.random.default_rng(seed)
    if case == "ties":  # every path scores the same
        unary, log_trans, log_init = np.full((sum(lengths), K), -1.5), np.full((K, K), -0.5), np.zeros(K)
    else:
        unary, log_trans, log_init = rng.normal(size=(sum(lengths), K)) * 3.0, rng.normal(size=(K, K)), rng.normal(size=K)
    if case == "forbidden":
        log_trans[rng.random((K, K)) < 0.4] = chain.LOG_EPS
        log_init[rng.random(K) < 0.4] = chain.LOG_EPS
    return chain.pad(unary, np.array(lengths)), log_trans, np.array(lengths), None if seed % 3 == 0 else log_init


@settings(max_examples=80, deadline=None)
@given(lengths=ragged, K=st.integers(1, 5), seed=seeds, case=cases)
@example(lengths=[1], K=3, seed=1, case="random")
@example(lengths=[9], K=4, seed=2, case="ties")
@example(lengths=[1, 7, 1, 4], K=3, seed=4, case="forbidden")
def test_chain_viterbi_equals_reference(lengths, K, seed, case):
    args = chain_case(lengths, K, seed, case)
    assert_same_decode(chain.viterbi(*args), reference_viterbi(*args))


def hsmm_case(K, d_max, seed, case):
    rng = np.random.default_rng(seed)
    model = random_hsmm(K=K, d=2, d_max=d_max, rng=rng)
    if case == "ties":  # every state scores the same on every frame
        off = (1.0 - np.eye(K)) / max(K - 1, 1) if K > 1 else np.zeros((1, 1))
        return Hsmm(pi=np.full(K, 1.0 / K), A=off, means=np.zeros((K, 2)), covs=np.stack([np.eye(2)] * K),
                    lambdas=np.full(K, 2.5), d_max=d_max)
    if case == "forbidden" and K > 2:  # zero some transitions (keeping one a row) and initial terms
        A = np.where(rng.random((K, K)) < 0.4, 0.0, model.A)
        A[np.arange(K), (np.arange(K) + 1) % K] = model.A[np.arange(K), (np.arange(K) + 1) % K]
        pi = np.where(rng.random(K) < 0.4, 0.0, model.pi)
        pi[0] = model.pi[0]
        return Hsmm(pi=pi / pi.sum(), A=A / A.sum(axis=1, keepdims=True), means=model.means, covs=model.covs,
                    lambdas=model.lambdas, d_max=d_max)
    return model


@settings(max_examples=80, deadline=None)
@given(lengths=ragged, K=st.integers(1, 4), d_max=st.integers(1, 15), seed=seeds, case=cases)
@example(lengths=[1], K=3, d_max=4, seed=1, case="random")
@example(lengths=[12], K=2, d_max=15, seed=2, case="ties")
@example(lengths=[1, 9, 1, 4], K=4, d_max=3, seed=3, case="forbidden")
def test_hsmm_viterbi_equals_reference(lengths, K, d_max, seed, case):
    model = hsmm_case(K, d_max, seed, case)
    seqs = [np.random.default_rng(seed + n).normal(size=(length, 2)) for n, length in enumerate(lengths)]
    assert_same_decode(hsmm_viterbi_batch(model, seqs), reference_hsmm_viterbi_batch(model, seqs))


def test_hsmm_viterbi_equals_reference_on_absorbed_ties():
    # every frame scores -2**59 under both states, absorbing every other term
    tie = Hsmm(pi=[0.5, 0.5], A=[[0.0, 1.0], [1.0, 0.0]], means=[[0.0], [0.0]],
               covs=np.ones((2, 1, 1)), lambdas=[2.0, 3.0], d_max=3)
    seqs = [np.full((n, 1), 2.0**30) for n in (5, 3, 1, 4)]
    assert_same_decode(hsmm_viterbi_batch(tie, seqs), reference_hsmm_viterbi_batch(tie, seqs))


def test_scaled_hsmm_rescales_below_low_and_above_high(monkeypatch):
    # Durations near 200 frames: the window masses start near pmf(1) ~ 1e-85 and,
    # once rescaled, grow past 1e60 as the likely durations come into reach.
    # Every step's rescale test must read the masses as numpy's min and max do.
    model = Hsmm(pi=[0.5, 0.5], A=[[0.0, 1.0], [1.0, 0.0]], means=[[0.0], [0.0]],
                 covs=np.ones((2, 1, 1)), lambdas=[200.0, 200.0], d_max=260)
    X, lengths = chain.stack([np.zeros((150, 1)), np.zeros((40, 1))])
    masses = []
    def spy(*args):
        if len(args) == 1:
            masses.append(np.array(args[0]))
        return min(*args)
    monkeypatch.setattr(hsmm_module, "min", spy, raising=False)
    log_dur = duration_log_pmf(model.lambdas, model.d_max)
    scaled = hsmm_module.scaled_messages(model, X, lengths, log_dur, stats=True)
    monkeypatch.undo()
    assert scaled is not None
    assert any(m.min() < hsmm_module.LOW for m in masses) and any(m.max() > hsmm_module.HIGH for m in masses)
    for m in masses:
        assert (min(m.tolist()) < hsmm_module.LOW or max(m.tolist()) > hsmm_module.HIGH) == bool(
            m.min() < hsmm_module.LOW or m.max() > hsmm_module.HIGH)
    cumb, _, log_pi, log_A = _segment_scores(model, X, lengths)
    logged = hsmm_module.log_messages(cumb, log_dur, log_pi, log_A, lengths)
    np.testing.assert_allclose(scaled[0], logged[0], rtol=1e-9, err_msg="loglik")
    for name, a, b in zip(("starts", "ends"), scaled[1:3], logged[1:3]):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-9, err_msg=name)
