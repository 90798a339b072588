import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionseg.data import SyntheticConfig, generate_synthetic
from motionseg.embedding import (
    IncrementalPca,
    encode_array,
    new_encoder,
    npairs_loss,
    pca2d,
    sample_npairs,
    sample_triplets_supervised,
    sample_triplets_time_contrastive,
    train_embedding,
    triplet_loss,
    triplet_loss_batch,
)
from motionseg.errors import DegenerateBatchError, UnfittedModelError
from motionseg.numerics import finite_diff_check, pack_arrays, unpack_arrays
from motionseg.pipeline import PipelineConfig
from motionseg.seqmodels.knn import KnnModel, knn_predict_batch


def unit_vector_at_sq_dist(sq_dist, axis):
    """Unit vector whose squared distance to e1 equals sq_dist (on the sphere)."""
    cos = 1.0 - sq_dist / 2.0
    sin = np.sqrt(1.0 - cos * cos)
    v = np.zeros(4)
    v[0] = cos
    v[axis] = sin
    return v


class TestTripletLoss:
    def test_inactive_hinge_when_negative_far(self):
        e1 = np.array([1.0, 0.0, 0.0, 0.0])
        neg = unit_vector_at_sq_dist(1.0, axis=2)
        loss, grads = triplet_loss(e1, e1, neg, margin=0.2)
        assert loss == 0.0
        for g in grads:
            assert not g.any()

    def test_all_equal_gives_margin(self):
        e1 = np.array([1.0, 0.0])
        loss, _ = triplet_loss(e1, e1, e1, margin=0.2)
        assert loss == pytest.approx(0.2)

    def test_direct_substitution(self):
        anchor = np.array([1.0, 0.0, 0.0, 0.0])
        pos = unit_vector_at_sq_dist(0.5, axis=1)
        neg = unit_vector_at_sq_dist(0.3, axis=2)
        loss, _ = triplet_loss(anchor, pos, neg, margin=0.2)
        assert loss == pytest.approx(0.4)

    def test_gradients_match_finite_differences_away_from_kink(self):
        rng = np.random.default_rng(0)
        checked = 0
        while checked < 20:
            vecs = rng.normal(size=(3, 5))
            vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
            a, p, n = vecs
            pre = np.sum((a - p) ** 2) - np.sum((a - n) ** 2) + 0.2
            if abs(pre) < 1e-3:
                continue
            flat0, shapes = pack_arrays([a, p, n])

            def fn(flat):
                aa, pp, nn = unpack_arrays(flat, shapes)
                loss, (ga, gp, gn) = triplet_loss(aa, pp, nn, margin=0.2)
                return loss, pack_arrays([ga, gp, gn])[0]

            assert finite_diff_check(fn, flat0) < 1e-4
            checked += 1

    def test_batch_mean_matches_single(self):
        rng = np.random.default_rng(1)
        E = rng.normal(size=(6, 4))
        E /= np.linalg.norm(E, axis=1, keepdims=True)
        triplets = [(0, 1, 2), (3, 4, 5), (0, 3, 5)]
        batch_loss, _ = triplet_loss_batch(E, triplets, margin=0.2)
        singles = [triplet_loss(E[a], E[p], E[n], 0.2)[0] for a, p, n in triplets]
        assert batch_loss == pytest.approx(np.mean(singles))


class TestNpairsLoss:
    def test_uniform_similarities_give_ln2(self):
        anchors = np.array([[1.0, 0.0], [1.0, 0.0]])
        positives = np.array([[0.0, 1.0], [0.0, 1.0]])
        loss, _ = npairs_loss(anchors, positives, np.array([1, 2]))
        assert loss == pytest.approx(np.log(2.0))

    def test_saturated_softmax_gives_near_zero(self):
        anchors = np.array([[10.0, 0.0], [0.0, 10.0]])
        positives = np.array([[10.0, 0.0], [0.0, 10.0]])
        loss, _ = npairs_loss(anchors, positives, np.array([1, 2]))
        assert loss < 1e-6

    def test_single_label_batch_rejected(self):
        with pytest.raises(DegenerateBatchError):
            npairs_loss(np.eye(2), np.eye(2), np.array([3, 3]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            A = rng.normal(size=(4, 3))
            P = rng.normal(size=(4, 3))
            labels = np.array([1, 2, 3, 1])
            flat0, shapes = pack_arrays([A, P])

            def fn(flat):
                aa, pp = unpack_arrays(flat, shapes)
                loss, (ga, gp) = npairs_loss(aa, pp, labels)
                return loss, pack_arrays([ga, gp])[0]

            assert finite_diff_check(fn, flat0) < 1e-4


class TestSamplers:
    def test_three_frame_batch_enumerates_exactly(self):
        rng = np.random.default_rng(0)
        triplets = sample_triplets_supervised(np.array([1, 1, 2]), rng)
        assert triplets.dtype == np.int64
        assert sorted(triplets.tolist()) == [[0, 1, 2], [1, 0, 2]]

    def test_one_frame_per_label_warns_and_returns_empty(self):
        rng = np.random.default_rng(0)
        with pytest.warns(UserWarning):
            triplets = sample_triplets_supervised(np.array([1, 2, 3]), rng)
        assert triplets.shape == (0, 3) and triplets.dtype == np.int64

    def test_single_label_batch_rejected(self):
        with pytest.raises(DegenerateBatchError):
            sample_triplets_supervised(np.array([2, 2, 2]), np.random.default_rng(0))

    def test_supervised_constraints_hold_on_large_batch(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(1, 6, size=128)
        triplets = sample_triplets_supervised(labels, rng)
        assert len(triplets)
        for a, p, n in triplets:
            assert labels[a] == labels[p] and labels[a] != labels[n] and a != p

    def test_time_contrastive_window_constraints(self):
        rng = np.random.default_rng(4)
        triplets = sample_triplets_time_contrastive(
            length=200, pos_window=6, neg_window=12, rng=rng, n_triplets=1000
        )
        assert triplets.shape == (1000, 3) and triplets.dtype == np.int64
        for a, p, n in triplets:
            assert p != a and abs(p - a) <= 6
            assert abs(n - a) > 12
            assert 0 <= p < 200 and 0 <= n < 200

    def test_time_contrastive_rejects_short_sequences(self):
        with pytest.raises(DegenerateBatchError):
            sample_triplets_time_contrastive(24, 6, 12, np.random.default_rng(0), 10)

    def test_npairs_sampler_one_pair_per_label(self):
        rng = np.random.default_rng(5)
        labels = np.array([1, 1, 2, 2, 2, 3])
        anchors, positives, pair_labels = sample_npairs(labels, rng)
        assert sorted(pair_labels.tolist()) == [1, 2]
        for a, p, lab in zip(anchors, positives, pair_labels):
            assert labels[a] == labels[p] == lab and a != p


def per_anchor_triplets(labels, rng):
    """Reference sampler: one rng.choice over positives, then negatives, per anchor."""
    idx = np.arange(labels.shape[0])
    triplets = []
    for i in idx:
        pos = idx[(labels == labels[i]) & (idx != i)]
        if pos.size == 0:
            continue
        neg = idx[labels != labels[i]]
        triplets.append((int(i), int(rng.choice(pos)), int(rng.choice(neg))))
    return triplets


@st.composite
def ragged_label_batches(draw):
    """2..140 frames over 2..12 labels, often with labels that occur once."""
    n = draw(st.integers(2, 140))
    k = draw(st.integers(2, 12))
    labels = draw(st.lists(st.integers(1, k), min_size=n, max_size=n))
    singletons = draw(st.integers(0, min(3, n - 1)))
    for j in range(singletons):  # relabel a few frames with labels of their own
        labels[draw(st.integers(0, n - 1))] = k + 1 + j
    if len(set(labels)) < 2:
        labels[0] = k + 10
    return np.asarray(labels)


@settings(max_examples=300, deadline=None)
@given(labels=ragged_label_batches(), seed=st.integers(0, 2**32 - 1))
def test_supervised_sampler_reproduces_per_anchor_draws(labels, seed):
    rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # batches where every label occurs once
        expected = per_anchor_triplets(labels, rng_ref)
        got = sample_triplets_supervised(labels, rng)
    assert got.shape == (len(expected), 3) and got.dtype == np.int64
    assert got.tolist() == [list(triplet) for triplet in expected]
    assert rng.random() == rng_ref.random()  # the generator advanced identically


def list_based_window_triplets(length, pos_window, neg_window, rng, n_triplets):
    """Reference sampler: rng.choice over the anchor, positive and negative candidate lists."""
    anchors = np.asarray([t for t in range(length) if t > neg_window or t < length - 1 - neg_window])
    triplets = []
    for _ in range(n_triplets):
        t = int(rng.choice(anchors))
        lo, hi = max(0, t - pos_window), min(length - 1, t + pos_window)
        pos_candidates = [s for s in range(lo, hi + 1) if s != t]
        neg_candidates = list(range(0, t - neg_window)) + list(range(t + neg_window + 1, length))
        triplets.append((t, int(rng.choice(pos_candidates)), int(rng.choice(neg_candidates))))
    return triplets


@settings(max_examples=300, deadline=None)
@given(
    neg_window=st.integers(0, 15),
    pos_window=st.integers(1, 15),
    extra=st.integers(0, 60),  # length - (2 * neg_window + 1); 0 leaves one frame without negatives
    count=st.integers(0, 50),
    seed=st.integers(0, 2**32 - 1),
)
def test_window_sampler_reproduces_list_based_draws(neg_window, pos_window, extra, count, seed):
    length = max(2, 2 * neg_window + 1 + extra)
    rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = list_based_window_triplets(length, pos_window, neg_window, rng_ref, count)
    got = sample_triplets_time_contrastive(length, pos_window, neg_window, rng, count)
    assert got.shape == (count, 3) and got.dtype == np.int64
    assert got.tolist() == [list(triplet) for triplet in expected]
    assert rng.bit_generator.state == rng_ref.bit_generator.state


def small_dataset(seed=0, classes=3, noise=0.45):
    config = SyntheticConfig(
        demonstrators=2,
        demos_per_demonstrator=2,
        num_classes=classes,
        feature_width=24,
        mean_durations=5.0,
        cycles=2,
        style_scale=0.8,
        noise_sigma=noise,
        seed=seed,
    )
    return generate_synthetic(config)


class TestEncode:
    def test_untrained_encoder_emits_unit_norm(self):
        enc = new_encoder(6, dim=4, hidden=(8,), seed=0)
        emb = encode_array(enc, np.arange(6.0))[0]
        assert abs(np.linalg.norm(emb) - 1.0) < 1e-9

    def test_huge_finite_features_still_encode_to_unit_rows(self):
        enc = new_encoder(6, 4, [8], seed=0)
        F = np.ones((2, 6))
        F[1] = 1e200  # the encoder output's squared norm overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            E = encode_array(enc, F)
        np.testing.assert_allclose(np.linalg.norm(E, axis=1), 1.0, atol=1e-12)

    def test_identical_frames_identical_embeddings(self):
        enc = new_encoder(5, dim=3, hidden=(7,), seed=1)
        x = np.array([0.3, -0.2, 1.0, 0.0, 2.0])
        np.testing.assert_array_equal(encode_array(enc, x), encode_array(enc, x.copy()))


class TestTrainEmbedding:
    def test_zero_epochs_returns_initialization(self):
        dataset = small_dataset()
        config = PipelineConfig(batch_size=16, embed_epochs=0, embed_dim=4, encoder_hidden=(8,))
        encs = []
        for _ in range(2):
            enc, trace = train_embedding(dataset, config, seed=7)
            encs.append(enc)
            assert trace == []
            assert not enc.trained
        for la, lb in zip(encs[0].mlp.layers, encs[1].mlp.layers):
            np.testing.assert_array_equal(la.w, lb.w)

    def test_fixed_seed_is_bit_reproducible(self):
        dataset = small_dataset()
        config = PipelineConfig(batch_size=16, embed_epochs=2, embed_dim=4, encoder_hidden=(8,))
        packed = []
        for _ in range(2):
            enc, _ = train_embedding(dataset, config, seed=13)
            packed.append(pack_arrays(enc.mlp.param_arrays())[0])
        np.testing.assert_array_equal(packed[0], packed[1])

    def test_training_improves_knn_over_raw_features(self):
        dataset = small_dataset(seed=3)
        config = PipelineConfig(batch_size=32, embed_epochs=25, embed_dim=6, encoder_hidden=(32,))
        enc, trace = train_embedding(dataset, config, seed=0)
        train_demos, test_demos = dataset.demos[:3], dataset.demos[3:]

        def knn_accuracy(transform):
            X = np.vstack([transform(d.features) for d in train_demos])
            y = np.concatenate([d.labels for d in train_demos])
            model = KnnModel(X, y, k=5)
            hits = total = 0
            for d in test_demos:
                pred, _ = knn_predict_batch(model, transform(d.features))
                hits += int((pred == d.labels).sum())
                total += d.num_frames
            return hits / total

        raw_acc = knn_accuracy(lambda F: F)
        emb_acc = knn_accuracy(lambda F: encode_array(enc, F))
        assert emb_acc > raw_acc
        # loss trace trends down: last 10% of steps no worse than first 10%
        k = max(1, len(trace) // 10)
        assert np.mean(trace[-k:]) <= np.mean(trace[:k])

    def test_intra_segment_distances_shrink_below_inter(self):
        dataset = small_dataset(seed=5)
        config = PipelineConfig(batch_size=32, embed_epochs=15, embed_dim=6, encoder_hidden=(24,))
        enc, _ = train_embedding(dataset, config, seed=2)
        demo = dataset.demos[0]
        E = encode_array(enc, demo.features)
        labels = demo.labels
        intra, inter = [], []
        for i in range(0, demo.num_frames, 2):
            for j in range(i + 1, demo.num_frames, 3):
                d = np.sum((E[i] - E[j]) ** 2)
                (intra if labels[i] == labels[j] else inter).append(d)
        assert np.mean(intra) < np.mean(inter)

    def test_svtcn_mode_trains_without_labels(self):
        dataset = small_dataset(seed=6)
        stripped = dataset
        for demo in stripped.demos:
            demo.hidden_labels = demo.labels
            demo.labels = None
        config = PipelineConfig(
            batch_size=16, embed_epochs=2, loss_mode="svtcn", embed_dim=4, encoder_hidden=(8,)
        )
        enc, trace = train_embedding(stripped, config, seed=0)
        assert enc.trained and len(trace) > 0


def test_siamese_triplet_gradient_through_encoder():
    # full training-path gradient: mlp -> unit normalization -> hinge triplet
    from motionseg.numerics import (
        Layer,
        MlpParams,
        l2_normalize_rows,
        l2_normalize_rows_backward,
        mlp_backward,
        mlp_forward,
    )

    rng = np.random.default_rng(9)
    enc = new_encoder(6, dim=4, hidden=(8,), seed=1)
    for layer in enc.mlp.layers[:-1]:
        layer.activation = "tanh"  # keep the check away from relu kinks
    X = rng.normal(size=(9, 6))
    triplets = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 4, 8), (2, 3, 7)]
    acts = [l.activation for l in enc.mlp.layers]
    flat0, shapes = pack_arrays(enc.mlp.param_arrays())

    def fn(flat):
        vals = unpack_arrays(flat, shapes)
        trial = MlpParams(
            [Layer(vals[2 * i], vals[2 * i + 1], act) for i, act in enumerate(acts)]
        )
        H, cache = mlp_forward(trial, X)
        E = l2_normalize_rows(H)
        loss, gE = triplet_loss_batch(E, triplets, 0.2)
        gH = l2_normalize_rows_backward(H, gE)
        grad, _ = mlp_backward(trial, cache, gH)
        return loss, grad

    assert finite_diff_check(fn, flat0) < 1e-4


class TestIncrementalPca:
    def test_rank_one_data_recovers_line(self):
        rng = np.random.default_rng(0)
        direction = np.array([0.6, 0.8])
        X = rng.normal(size=(200, 1)) * direction[None, :]
        pca = IncrementalPca(1).partial_fit(X)
        cos = abs(float(pca.components_[0] @ direction))
        assert cos > 0.999

    def test_single_batch_matches_eigendecomposition(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(60, 5)) @ np.diag([3.0, 2.0, 1.0, 0.5, 0.2])
        pca = IncrementalPca(3).partial_fit(X)
        cov = np.cov(X, rowvar=False, bias=True)
        vals, vecs = np.linalg.eigh(cov)
        top = vecs[:, np.argsort(vals)[::-1][:3]].T
        for got, want in zip(pca.components_, top):
            assert abs(float(got @ want)) > 1 - 1e-8

    def test_transform_before_fit_raises(self):
        with pytest.raises(UnfittedModelError):
            IncrementalPca(2).transform(np.zeros((3, 4)))

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=3, max_value=12), min_size=1, max_size=5
        ),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_components_stay_orthonormal(self, batch_sizes, seed):
        rng = np.random.default_rng(seed)
        pca = IncrementalPca(3)
        for size in batch_sizes:
            pca.partial_fit(rng.normal(size=(size, 7)))
        gram = pca.components_ @ pca.components_.T
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-8

    def test_incremental_projection_tracks_batch_pca(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(600, 6)) @ np.diag([4.0, 2.5, 1.0, 0.4, 0.2, 0.1])
        pca = IncrementalPca(2)
        for chunk in np.array_split(X, 6):
            pca.partial_fit(chunk)
        cov = np.cov(X, rowvar=False, bias=True)
        vals, vecs = np.linalg.eigh(cov)
        top = vecs[:, np.argsort(vals)[::-1][:2]].T
        for got, want in zip(pca.components_, top):
            assert abs(float(got @ want)) > 0.99


class TestPca2d:
    def test_collinear_points_have_zero_second_axis(self):
        t = np.linspace(-2, 2, 7)
        X = t[:, None] * np.array([1.0, 2.0, -1.0])[None, :]
        coords = pca2d(X)
        assert np.max(np.abs(coords[:, 1])) < 1e-9

    def test_projection_residual_not_beaten_by_random_planes(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 5)) @ np.diag([3.0, 2.0, 1.0, 0.5, 0.1])
        centered = X - X.mean(axis=0)
        coords = pca2d(X)
        residual = np.sum(centered**2) - np.sum(coords**2)
        for _ in range(20):
            Q, _ = np.linalg.qr(rng.normal(size=(5, 2)))
            proj = centered @ Q
            other = np.sum(centered**2) - np.sum(proj**2)
            assert residual <= other + 1e-9

    def test_fewer_than_two_points_rejected(self):
        with pytest.raises(DegenerateBatchError):
            pca2d(np.ones((1, 3)))
