from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionseg.errors import ModelInvalidError, NumericError
from motionseg.seqmodels.knn import KnnModel, knn_predict, knn_predict_batch


def oracle_vote(train, labels, query, k):
    """Exhaustive scan with explicit (distance, index) sorting and tie rules:
    (label, vote fraction)."""
    dists = [(float(np.linalg.norm(t - query)), i) for i, t in enumerate(train)]
    dists.sort()
    near = dists[:k]
    votes = Counter(labels[i] for _, i in near)
    best = None
    for lab in sorted(votes):
        dist_sum = sum(d for d, i in near if labels[i] == lab)
        key = (-votes[lab], dist_sum, lab)
        if best is None or key < best[0]:
            best = (key, lab)
    return best[1], votes[best[1]] / k


def oracle_knn(train, labels, query, k):
    return oracle_vote(train, labels, query, k)[0]


def test_exact_training_point_with_k1():
    train = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    labels = np.array([3, 1, 2])
    assert knn_predict(train, labels, np.array([1.0, 1.0]), k=1) == 1


def test_global_majority_when_k_equals_train_size():
    train = np.array([[0.0], [1.0], [2.0], [10.0]])
    labels = np.array([5, 5, 5, 9])
    assert knn_predict(train, labels, np.array([4.0]), k=4) == 5


def test_matches_exhaustive_oracle():
    rng = np.random.default_rng(0)
    train = rng.normal(size=(50, 3))
    labels = rng.integers(1, 5, size=50)
    for _ in range(40):
        q = rng.normal(size=3)
        assert knn_predict(train, labels, q, k=5) == oracle_knn(train, labels, q, 5)


def test_batch_agrees_with_single_and_reports_vote_fraction():
    rng = np.random.default_rng(1)
    train = rng.normal(size=(30, 2))
    labels = rng.integers(1, 4, size=30)
    model = KnnModel(train, labels, k=5)
    queries = rng.normal(size=(10, 2))
    batch_labels, conf = knn_predict_batch(model, queries)
    for i, q in enumerate(queries):
        assert batch_labels[i] == knn_predict(train, labels, q, k=5)
    assert ((conf > 0) & (conf <= 1)).all()
    assert np.all(conf >= 1 / 5 - 1e-12)


def test_vote_tie_breaks_by_summed_distance_then_label():
    # two votes each; label 2's neighbours are closer
    train = np.array([[0.0], [0.1], [5.0], [5.1]])
    labels = np.array([2, 2, 1, 1])
    assert knn_predict(train, labels, np.array([0.05]), k=4) == 2
    # perfectly symmetric: equal votes and sums, smaller label wins
    train = np.array([[-1.0], [1.0]])
    labels = np.array([4, 3])
    assert knn_predict(train, labels, np.array([0.0]), k=2) == 3


def test_k1_on_own_training_set_is_perfect():
    rng = np.random.default_rng(2)
    train = rng.normal(size=(40, 4))
    labels = rng.integers(1, 6, size=40)
    model = KnnModel(train, labels, k=1)
    pred, _ = knn_predict_batch(model, train)
    assert (pred == labels).all()


def test_empty_training_set_rejected():
    with pytest.raises(ValueError):
        knn_predict(np.zeros((0, 2)), np.zeros(0, dtype=int), np.zeros(2), k=1)


def test_k_out_of_range_rejected():
    with pytest.raises(ValueError):
        knn_predict(np.zeros((3, 2)), np.array([1, 2, 3]), np.zeros(2), k=4)


def test_duplicate_points_tie_on_kth_boundary_by_index():
    # four points at distance 1 compete for the last two of k=3 places:
    # the two lowest indices (labels 7, 7) win, not index 3 (label 3)
    train = np.array([[0.0], [1.0], [1.0], [1.0], [2.0], [-1.0]])
    labels = np.array([5, 7, 7, 3, 3, 3])
    model = KnnModel(train, labels, k=3)
    pred, conf = knn_predict_batch(model, np.array([[0.0], [0.0]]))
    np.testing.assert_array_equal(pred, [7, 7])
    np.testing.assert_allclose(conf, 2 / 3)
    # duplicated grid points put many ties on the k-th boundary
    rng = np.random.default_rng(3)
    grid = np.repeat(rng.integers(-2, 3, size=(12, 2)).astype(float), 3, axis=0)
    grid_labels = rng.integers(1, 4, size=grid.shape[0])
    queries = rng.integers(-2, 3, size=(40, 2)).astype(float)
    for k in (1, 2, 4, 5, 7):
        batch, _ = knn_predict_batch(KnnModel(grid, grid_labels, k=k), queries)
        expected = [oracle_knn(grid, grid_labels, q, k) for q in queries]
        np.testing.assert_array_equal(batch, expected)


def test_equal_distance_multisets_tie_on_label():
    # both labels have neighbours at 0.1, 0.2 and 0.3; summed nearest-first
    # the totals are equal, so the smaller label wins. Summed in index order
    # they would round differently (0.3 + 0.2 + 0.1 != 0.1 + 0.2 + 0.3).
    train = np.array([[0.3], [0.2], [0.1], [-0.1], [-0.2], [-0.3]])
    labels = np.array([2, 2, 2, 1, 1, 1])
    pred, conf = knn_predict_batch(KnnModel(train, labels, k=6), np.zeros((1, 1)))
    assert pred[0] == oracle_knn(train, labels, np.zeros(1), 6) == 1
    assert conf[0] == 0.5


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 3).flatmap(lambda d: st.tuples(
        st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d), min_size=1, max_size=10),
        st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d), min_size=1, max_size=6),
    )),
    st.lists(st.integers(1, 3), min_size=10, max_size=10),
    st.lists(st.integers(1, 4), min_size=30, max_size=30),
    st.data(),
)
def test_batch_matches_full_row_ranking_oracle_with_exact_ties(points, copies, label_pool, data):
    # integer grid points, each repeated: squared distances are exact, so many
    # neighbours tie on the k-th distance
    distinct, queries = (np.array(a, dtype=float) for a in points)
    train = np.repeat(distinct, copies[: len(distinct)], axis=0)
    labels = np.array(label_pool[: train.shape[0]])
    k = data.draw(st.one_of(st.just(1), st.just(train.shape[0]), st.integers(1, train.shape[0])))
    pred, conf = knn_predict_batch(KnnModel(train, labels, k=k), queries)
    expected = [oracle_vote(train, labels, q, k) for q in queries]
    np.testing.assert_array_equal(pred, [lab for lab, _ in expected])
    np.testing.assert_array_equal(conf, [c for _, c in expected])


def test_held_norms_and_label_index_match_a_fresh_computation():
    rng = np.random.default_rng(5)
    points, labels = rng.normal(size=(20, 3)), rng.integers(1, 6, size=20)
    model = KnnModel(points, labels, k=3)
    np.testing.assert_array_equal(model.sq_norms, np.sum(model.train_points**2, axis=1))
    classes, label_index = np.unique(model.train_labels, return_inverse=True)
    np.testing.assert_array_equal(model.classes, classes)
    np.testing.assert_array_equal(model.label_index, label_index)
    for held in (model.train_points, model.train_labels):
        with pytest.raises(ValueError, match="read-only"):
            held[0] = 0
    points[0, 0] = 9.0  # the caller's arrays stay writable and apart from the model
    labels[0] = 9
    assert model.train_points[0, 0] != 9.0 and model.train_labels[0] != 9


def test_points_whose_squares_overflow_rejected():
    # 1e200 squares to inf: the vote would rank this query's own point as far as any
    with pytest.raises(ModelInvalidError, match="^knn train_points squared norms must be finite$"):
        KnnModel([[1e200, 0.0], [0.0, 1.0], [1.0, 1.0]], [1, 2, 3], k=1)


@pytest.mark.parametrize("query", [[1e200, 0.0], [np.nan, 0.0]], ids=["overflow", "nan"])
def test_queries_not_finite_or_whose_squares_overflow_rejected(query):
    # either query would get its label from the index tie-break, at distance inf or nan to every point
    model = KnnModel([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1, 2, 3], k=1)
    with pytest.raises(NumericError, match="^knn queries and their squared norms must be finite$"):
        knn_predict_batch(model, [query])
