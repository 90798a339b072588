import numpy as np
import pytest

from motionseg import experiments, pipeline
from motionseg.data import SyntheticConfig, generate_synthetic, mask_labels, split_leave_one_out
from motionseg.embedding import encode_array
from motionseg.errors import DegenerateDatasetError, UnfittedModelError
from motionseg.numerics import pack_arrays
from motionseg.pipeline import (
    PipelineConfig,
    PseudoLabel,
    infer_pseudo_labels,
    predict_frames,
    pretrain_encoder,
    run_alternation,
    select_top_k,
    train_sequence_model,
    train_val_split,
)


def make_dataset(seed=0, demonstrators=3, demos_per=3, classes=4):
    config = SyntheticConfig(
        demonstrators=demonstrators,
        demos_per_demonstrator=demos_per,
        num_classes=classes,
        feature_width=24,
        mean_durations=5.0,
        cycles=2,
        style_scale=0.8,
        noise_sigma=0.45,
        seed=seed,
    )
    return generate_synthetic(config)


def small_config(**overrides):
    base = dict(
        rounds=2,
        top_k=30,
        stride=32,
        loss_mode="triplet",
        seq_model="rnn",
        seed=0,
        embed_dim=8,
        encoder_hidden=(32,),
        embed_epochs=8,
        batch_size=32,
        rnn_hidden=16,
        rnn_epochs=12,
        hmm_states=6,
        em_iterations=4,
        d_max=12,
        crf_iterations=15,
    )
    base.update(overrides)
    return PipelineConfig(**base)


class TestPretrain:
    def test_minimal_labeled_input_trains(self):
        ds = make_dataset()
        for demo in ds.demos[1:]:
            demo.hidden_labels, demo.labels = demo.labels, None
        enc, _ = pretrain_encoder(ds, small_config())
        assert enc.trained

    def test_same_seed_identical_encoders(self):
        ds = make_dataset()
        packed = []
        for _ in range(2):
            enc, _ = pretrain_encoder(ds, small_config(), seed=42)
            packed.append(pack_arrays(enc.mlp.param_arrays())[0])
        np.testing.assert_array_equal(packed[0], packed[1])

    def test_no_labels_rejected(self):
        ds = make_dataset()
        for demo in ds.demos:
            demo.hidden_labels, demo.labels = demo.labels, None
        with pytest.raises(DegenerateDatasetError):
            pretrain_encoder(ds, small_config())

    def test_pretrained_knn_beats_chance(self):
        ds = make_dataset(seed=1)
        config = small_config(embed_epochs=15)
        train, test = split_leave_one_out(ds, 0)
        enc, _ = pretrain_encoder(train, config, seed=3)
        embed = lambda F: encode_array(enc, F)
        bundle = train_sequence_model(embed, train, config, seed=4, kind="knn")
        from motionseg.pipeline import evaluate_segmentation

        acc = evaluate_segmentation(embed, bundle, test.demos)
        assert acc > 1.0 / ds.num_classes


class TestPseudoLabels:
    def setup_method(self):
        self.ds = mask_labels(make_dataset(seed=2), 0.5, seed=0)
        self.config = small_config()
        self.train, _ = split_leave_one_out(self.ds, 0)
        self.encoder, _ = pretrain_encoder(self.train, self.config, seed=1)
        embed = lambda F: encode_array(self.encoder, F)
        self.bundle = train_sequence_model(embed, self.train, self.config, seed=2)

    def test_empty_unlabeled_set_gives_empty_pseudo_set(self):
        assert infer_pseudo_labels(self.encoder, self.bundle, []) == []

    def test_coverage_matches_unlabeled_frames(self):
        unlabeled = self.train.unlabeled_demos()
        pseudo = infer_pseudo_labels(self.encoder, self.bundle, unlabeled)
        assert len(pseudo) == sum(d.num_frames for d in unlabeled)
        for p in pseudo:
            assert 1 <= p.label <= self.ds.num_classes
            assert 0 < p.confidence <= 1

    def test_pseudo_accuracy_beats_chance(self):
        unlabeled = self.train.unlabeled_demos()
        pseudo = infer_pseudo_labels(self.encoder, self.bundle, unlabeled)
        truth = {(d.demo_id, t): int(d.true_labels()[t]) for d in unlabeled for t in range(d.num_frames)}
        hits = sum(1 for p in pseudo if truth[(p.demo_id, p.frame_index)] == p.label)
        assert hits / len(pseudo) > 1.0 / self.ds.num_classes

    def test_untrained_encoder_rejected(self):
        from motionseg.embedding import new_encoder

        enc = new_encoder(self.ds.feature_width, dim=4, hidden=(8,), seed=0)
        with pytest.raises(UnfittedModelError):
            infer_pseudo_labels(enc, self.bundle, self.train.unlabeled_demos())


class TestSelectTopK:
    def test_underfull_class_keeps_all(self):
        pseudo = [PseudoLabel("d", t, 1, 0.5 + 0.1 * t) for t in range(3)]
        assert len(select_top_k(pseudo, 5)) == 3

    def test_keeps_highest_confidence(self):
        pseudo = [PseudoLabel("d", t, 1, conf) for t, conf in enumerate(np.linspace(0.1, 1.0, 10))]
        kept = select_top_k(pseudo, 2)
        assert sorted(p.confidence for p in kept) == [0.9, 1.0]

    def test_cardinality_identity(self):
        rng = np.random.default_rng(0)
        pseudo = [
            PseudoLabel(f"d{rng.integers(3)}", int(t), int(rng.integers(1, 5)), float(rng.random()))
            for t in range(200)
        ]
        k = 20
        kept = select_top_k(pseudo, k)
        by_class = {}
        for p in pseudo:
            by_class.setdefault(p.label, []).append(p)
        expected = sum(min(k, len(v)) for v in by_class.values())
        assert len(kept) == expected

    def test_ties_break_on_demo_then_frame(self):
        pseudo = [
            PseudoLabel("b", 0, 1, 0.9),
            PseudoLabel("a", 5, 1, 0.9),
            PseudoLabel("a", 2, 1, 0.9),
        ]
        kept = select_top_k(pseudo, 2)
        assert [(p.demo_id, p.frame_index) for p in kept] == [("a", 2), ("a", 5)]

    def test_confidences_non_increasing_prefix(self):
        rng = np.random.default_rng(1)
        pseudo = [PseudoLabel("d", t, 2, float(rng.random())) for t in range(50)]
        kept = select_top_k(pseudo, 10)
        confs = [p.confidence for p in kept]
        assert confs == sorted(confs, reverse=True)
        assert min(confs) >= max(p.confidence for p in pseudo if p not in kept)


class TestAlternation:
    def test_single_round_is_pretrain_plus_sequence_train(self):
        ds = make_dataset(seed=3)
        config = small_config(rounds=1)
        _, _, trace = run_alternation(ds, config)
        assert len(trace) == 1
        assert trace[0].n_pseudo == 0

    def test_trace_length_equals_rounds_without_early_stop(self):
        ds = make_dataset(seed=4)
        config = small_config(rounds=3, labeled_fraction=0.5, early_stop_tol=-10.0)
        _, _, trace = run_alternation(ds, config)
        assert len(trace) == 3
        assert [m.round for m in trace] == [1, 2, 3]

    def test_no_labeled_training_demo_rejected_before_encoder_training(self, monkeypatch):
        ds = make_dataset(seed=8)
        for demo in ds.demos:
            if not demo.demo_id.endswith("_t0"):  # val_index 0 holds out each "_t0" demo
                demo.hidden_labels, demo.labels = demo.labels, None

        def no_training(*args, **kwargs):
            raise AssertionError("the encoder trained before the labeled-demo check")

        monkeypatch.setattr(pipeline, "train_embedding", no_training)
        with pytest.raises(DegenerateDatasetError, match="hmm needs labeled demos"):
            run_alternation(ds, small_config(loss_mode="svtcn", seq_model="hmm"))

    def test_early_stop_truncates_trace(self):
        ds = make_dataset(seed=5)
        config = small_config(rounds=5, labeled_fraction=0.5, early_stop_tol=10.0)
        _, _, trace = run_alternation(ds, config)
        assert len(trace) == 2  # round 2 can never beat the huge tolerance

    def test_true_labels_never_overwritten(self):
        ds = make_dataset(seed=6)
        before = {d.demo_id: d.labels.copy() for d in ds.demos}
        config = small_config(rounds=2, labeled_fraction=0.5)
        run_alternation(ds, config)
        for demo in ds.demos:
            np.testing.assert_array_equal(demo.labels, before[demo.demo_id])

    def test_fixed_seed_bit_reproducible(self):
        results = []
        for _ in range(2):
            ds = make_dataset(seed=7)
            config = small_config(rounds=2, labeled_fraction=0.5, seed=9)
            enc, _, trace = run_alternation(ds, config)
            results.append(
                (pack_arrays(enc.mlp.param_arrays())[0], [m.val_acc for m in trace])
            )
        np.testing.assert_array_equal(results[0][0], results[1][0])
        assert results[0][1] == results[1][1]

    @pytest.mark.parametrize("kind", ["hmm", "hsmm"])
    def test_chain_models_run_at_partial_labels(self, kind):
        # two labeled demos: their Viterbi paths visit fewer than the 8
        # states that validation and unlabeled demos may land in
        ds = make_dataset(seed=0)
        config = small_config(seq_model=kind, labeled_fraction=0.25, hmm_states=8)
        _, bundle, trace = run_alternation(ds, config)
        assert len(trace) == 2 and 0.0 <= trace[-1].val_acc <= 1.0
        assert bundle.state_map.shape == (8,)
        assert set(bundle.state_map.tolist()) <= set(range(1, ds.num_classes + 1))


class TestTrainValSplit:
    def test_full_fraction_matches_mask_at_one(self):
        ds = make_dataset(seed=1)
        config = small_config(labeled_fraction=1.0)
        want_split = split_leave_one_out(mask_labels(ds, 1.0, seed=0), 0)
        for got, want in zip(train_val_split(ds, config), want_split):
            assert [d.demo_id for d in got.demos] == [d.demo_id for d in want.demos]
            for a, b in zip(got.demos, want.demos):
                np.testing.assert_array_equal(a.labels, b.labels)

    def test_partial_fraction_masks_then_splits(self):
        ds = make_dataset(seed=1)
        config = small_config(labeled_fraction=0.5, seed=3, val_index=1)
        train, val = train_val_split(ds, config)
        want_train, want_val = split_leave_one_out(mask_labels(ds, 0.5, 3), 1)
        assert [d.demo_id for d in val.demos] == [d.demo_id for d in want_val.demos]
        assert [d.labels is None for d in train.demos] == [d.labels is None for d in want_train.demos]
        assert len(train.labeled_demos()) < len(train.demos)


def test_fraction_trend_mean_accuracy_non_decreasing():
    # more labeled demonstrations never hurts on seed-averaged means
    from dataclasses import replace

    from motionseg.data import SyntheticConfig, generate_synthetic

    ds = generate_synthetic(SyntheticConfig(seed=0))
    base = PipelineConfig(
        rounds=3, top_k=100, stride=64, embed_dim=32, encoder_hidden=(256, 64),
        embed_epochs=30, batch_size=128, rnn_hidden=32, rnn_epochs=15, rnn_lr=1e-2,
    )
    means = []
    for fraction in (0.05, 0.25, 1.0):
        accs = []
        for seed in range(5):
            cfg = replace(base, labeled_fraction=fraction, seed=seed)
            _, _, trace = run_alternation(ds, cfg)
            accs.append(trace[-1].val_acc)
        means.append(float(np.mean(accs)))
    assert means[0] <= means[1] <= means[2]


class TestPredictFrames:
    def test_every_kind_emits_valid_labels_and_confidences(self):
        ds = make_dataset(seed=8)
        config = small_config()
        train, test = split_leave_one_out(ds, 0)
        enc, _ = pretrain_encoder(train, config, seed=0)
        embed = lambda F: encode_array(enc, F)
        demo = test.demos[0]
        E = embed(demo.features)
        for kind in ("knn", "hmm", "hsmm", "crf", "rnn"):
            bundle = train_sequence_model(embed, train, config, seed=1, kind=kind)
            labels, conf = predict_frames(bundle, E)
            assert labels.shape == (demo.num_frames,)
            assert conf.shape == (demo.num_frames,)
            assert labels.min() >= 1 and labels.max() <= ds.num_classes
            assert (conf > 0).all() and (conf <= 1 + 1e-12).all()


@pytest.mark.parametrize("kind", ["knn", "hmm", "hsmm", "crf", "rnn"])
def test_no_labeled_training_demo_rejected(kind):
    ds = make_dataset(seed=8)
    for demo in ds.demos:
        demo.hidden_labels, demo.labels = demo.labels, None
    with pytest.raises(DegenerateDatasetError, match=f"{kind} needs labeled demos"):
        train_sequence_model(lambda F: F, ds, small_config(), seed=0, kind=kind)


class TestFractionSweep:
    def test_svtcn_encoder_trains_once_per_seed_with_unchanged_results(self, monkeypatch):
        ds = make_dataset(seed=2)
        config = small_config(rounds=1, embed_epochs=2, rnn_epochs=2)
        calls = []
        train_once = experiments.pretrain_encoder

        def counting(dataset, cfg, seed=None):
            calls.append((cfg.loss_mode, cfg.labeled_fraction, seed))
            return train_once(dataset, cfg, seed)

        monkeypatch.setattr(experiments, "pretrain_encoder", counting)
        records = experiments.fraction_sweep(ds, [0.5, 1.0], config, seeds=(0, 1))
        svtcn = [c for c in calls if c[0] == "svtcn"]
        assert [c[1] for c in svtcn] == [0.5, 0.5] and len({c[2] for c in svtcn}) == 2
        # a sweep of 1.0 alone trains its own svTCN encoders and gives the same record
        assert experiments.fraction_sweep(ds, [1.0], config, seeds=(0, 1)) == records[1:]
