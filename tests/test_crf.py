import itertools

import numpy as np
import pytest

from motionseg.numerics import finite_diff_check, pack_arrays, unpack_arrays
from motionseg.seqmodels.chain import logsumexp
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


def random_crf(C, d, E, rng):
    crf = new_crf(C, d, num_basis=E, seed=int(rng.integers(2**31)))
    crf.unary = rng.normal(size=(C, E))
    crf.transitions = rng.normal(size=(C, C))
    return crf


def enumerate_paths(crf, X):
    scores = crf_features(crf, X) @ crf.unary.T
    T, C = scores.shape
    vals = []
    for path in itertools.product(range(C), repeat=T):
        s = scores[0, path[0]]
        for t in range(1, T):
            s += crf.transitions[path[t - 1], path[t]] + scores[t, path[t]]
        vals.append((s, path))
    arr = np.array([v for v, _ in vals])
    best_score, best_path = max(vals, key=lambda item: item[0])
    return float(logsumexp(arr)), best_score, np.array(best_path) + 1


def test_partition_single_frame_is_logsumexp_of_unaries():
    rng = np.random.default_rng(0)
    crf = random_crf(C=4, d=3, E=5, rng=rng)
    X = rng.normal(size=(1, 3))
    scores = crf_features(crf, X) @ crf.unary.T
    assert abs(crf_log_partition(crf, X) - logsumexp(scores[0])) < 1e-12


def test_partition_matches_enumeration():
    rng = np.random.default_rng(1)
    for _ in range(15):
        crf = random_crf(C=3, d=2, E=4, rng=rng)
        X = rng.normal(size=(3, 2))
        oracle, _, _ = enumerate_paths(crf, X)
        assert abs(crf_log_partition(crf, X) - oracle) < 1e-9


def test_viterbi_matches_enumeration():
    rng = np.random.default_rng(2)
    for _ in range(10):
        crf = random_crf(C=3, d=2, E=4, rng=rng)
        X = rng.normal(size=(5, 2))
        _, best_score, best_path = enumerate_paths(crf, X)
        path = crf_viterbi(crf, X)
        np.testing.assert_array_equal(path, best_path)


def test_marginals_rows_sum_to_one():
    rng = np.random.default_rng(3)
    crf = random_crf(C=4, d=3, E=6, rng=rng)
    X = rng.normal(size=(20, 3))
    marg = crf_marginals(crf, X)
    np.testing.assert_allclose(marg.sum(axis=1), 1.0, atol=1e-9)


def test_loglik_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    C, d, E = 3, 2, 4
    crf = random_crf(C, d, E, rng=rng)
    sequences = [
        (rng.normal(size=(4, d)), rng.integers(1, C + 1, size=4)) for _ in range(3)
    ]
    flat0, shapes = pack_arrays([crf.unary, crf.transitions])

    def fn(flat):
        unary, trans = unpack_arrays(flat, shapes)
        trial = LinearChainCrf(projection=crf.projection, unary=unary, transitions=trans)
        ll, gu, gt = crf_loglik_and_grad(trial, sequences)
        return -ll, -pack_arrays([gu, gt])[0]

    assert finite_diff_check(fn, flat0) < 1e-4


def test_train_objective_non_decreasing():
    rng = np.random.default_rng(5)
    C, d = 3, 2
    sequences = []
    for _ in range(4):
        labels = rng.integers(1, C + 1, size=12)
        X = np.array([[lab * 1.0, -lab * 0.5] for lab in labels]) + rng.normal(
            size=(12, 2), scale=0.2
        )
        sequences.append((X, labels))
    crf, trace = crf_train(sequences, num_labels=C, iterations=30, num_basis=8, seed=0)
    assert (np.diff(trace) >= -1e-12).all()
    assert crf.trained


def test_train_learns_separable_labels():
    rng = np.random.default_rng(6)
    C, d = 3, 3
    sequences = []
    for _ in range(6):
        labels = rng.integers(1, C + 1, size=20)
        X = np.zeros((20, d))
        X[np.arange(20), labels - 1] = 2.0
        X += rng.normal(size=(20, d), scale=0.1)
        sequences.append((X, labels))
    crf, _ = crf_train(sequences, num_labels=C, iterations=60, num_basis=8, seed=1)
    hits = total = 0
    for X, labels in sequences:
        pred = crf_viterbi(crf, X)
        hits += int((pred == labels).sum())
        total += len(labels)
    assert hits / total > 0.95


def test_empty_sequence_raises():
    crf = new_crf(3, 2, num_basis=4, seed=0)
    with pytest.raises(ValueError):
        crf_log_partition(crf, np.zeros((0, 2)))
