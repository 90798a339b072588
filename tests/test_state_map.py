import numpy as np
import pytest

from motionseg.data import segmentation_accuracy
from motionseg.seqmodels.hmm import GaussianHmm, hmm_viterbi
from motionseg.pipeline import greedy_state_label_map


def test_majority_cooccurrence_wins():
    path = np.zeros(10, dtype=int)
    labels = np.array([2] * 9 + [7])
    mapping = greedy_state_label_map([path], [labels], 1)
    assert mapping[0] == 2


def test_disjoint_support_gives_identity_like_map():
    paths = [np.array([0, 0, 1, 1])]
    labels = [np.array([1, 1, 2, 2])]
    mapping = greedy_state_label_map(paths, labels, 2)
    assert mapping.tolist() == [1, 2]


def test_unseen_state_maps_to_global_majority():
    paths = [np.array([0, 0, 1]), np.array([2, 2, 2])]
    labels = [np.array([4, 4, 5]), None]
    mapping = greedy_state_label_map(paths, labels, 3)
    assert mapping[2] == 4


def test_state_on_no_path_maps_to_global_majority():
    paths = [np.array([0, 0, 2])]
    labels = [np.array([3, 3, 5])]
    mapping = greedy_state_label_map(paths, labels, 4)
    assert mapping.tolist() == [3, 3, 5, 3]


def test_global_majority_tie_breaks_to_smaller_label():
    paths = [np.array([0, 1])]
    labels = [np.array([5, 2])]
    mapping = greedy_state_label_map(paths, labels, 3)
    assert mapping.tolist() == [5, 2, 2]


def test_tie_breaks_to_smaller_label():
    paths = [np.array([0, 0])]
    labels = [np.array([3, 1])]
    mapping = greedy_state_label_map(paths, labels, 1)
    assert mapping[0] == 1


def test_no_labeled_frames_raises():
    with pytest.raises(ValueError):
        greedy_state_label_map([np.array([0, 1])], [None], 2)


def test_mapped_accuracy_beats_constant_predictors():
    rng = np.random.default_rng(0)
    truth = GaussianHmm(
        pi=[0.5, 0.5],
        A=[[0.92, 0.08], [0.1, 0.9]],
        means=[[-2.0], [2.0]],
        covs=np.array([[[0.3]], [[0.3]]]),
    )
    T = 400
    states = np.empty(T, dtype=int)
    X = np.empty((T, 1))
    states[0] = rng.choice(2, p=truth.pi)
    for t in range(T):
        if t:
            states[t] = rng.choice(2, p=truth.A[states[t - 1]])
        X[t] = rng.normal(truth.means[states[t]], np.sqrt(truth.covs[states[t], 0, 0]))
    labels = states + 1  # ground-truth segment labels
    path, _ = hmm_viterbi(truth, X)
    mapping = greedy_state_label_map([path], [labels], 2)
    mapped = mapping[path]
    acc = segmentation_accuracy(mapped, labels)
    for const in (1, 2):
        assert acc >= segmentation_accuracy(np.full(T, const), labels)
