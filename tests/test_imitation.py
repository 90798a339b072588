import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionseg import imitation, numerics
from motionseg.data import SyntheticConfig, generate_synthetic, split_leave_one_out
from motionseg.embedding import encode_array
from motionseg.imitation import (
    SCOPES,
    EndEffectorPose,
    decode_pose,
    encode_once,
    eval_pose,
    new_pose_decoder,
    pose_loss,
    pose_loss_batch,
    train_pose_decoder,
    trajectory_rows,
)
from motionseg.numerics import finite_diff_check, pack_arrays
from motionseg.pipeline import PipelineConfig, pretrain_encoder


def make_pose(rng=None, seed=0):
    rng = rng or np.random.default_rng(seed)
    def quat():
        q = rng.normal(size=4)
        return q / np.linalg.norm(q)
    return EndEffectorPose(
        left_position=rng.normal(size=3),
        left_quaternion=quat(),
        left_jaw=float(rng.normal()),
        right_position=rng.normal(size=3),
        right_quaternion=quat(),
        right_jaw=float(rng.normal()),
    )


class TestPoseLoss:
    def test_identical_poses_score_zero(self):
        pose = make_pose(seed=0)
        loss, grad = pose_loss(pose, pose, w_pos=0.5)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_quaternion_sign_flip_is_exactly_invariant(self):
        rng = np.random.default_rng(1)
        pred = make_pose(rng=rng)
        truth = make_pose(rng=rng)
        loss_a, _ = pose_loss(pred, truth, w_pos=0.4)
        flipped = EndEffectorPose(
            left_position=pred.left_position,
            left_quaternion=-pred.left_quaternion,
            left_jaw=pred.left_jaw,
            right_position=pred.right_position,
            right_quaternion=-pred.right_quaternion,
            right_jaw=pred.right_jaw,
        )
        loss_b, _ = pose_loss(flipped, truth, w_pos=0.4)
        assert loss_a == loss_b  # exact, not approximate

    def test_one_centimeter_on_one_axis_gives_one_sixteenth(self):
        truth = make_pose(seed=2)
        vec = truth.to_vector().copy()
        vec[0] += 1.0
        pred = EndEffectorPose.from_vector(vec)
        loss, _ = pose_loss(pred, truth, w_pos=1.0)
        assert loss == pytest.approx(1.0 / 16.0)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            loss, _ = pose_loss(make_pose(rng=rng), make_pose(rng=rng), w_pos=0.5)
            assert loss >= 0.0

    def test_zero_norm_predicted_quaternion_handled(self):
        truth = make_pose(seed=4)
        raw = truth.to_vector().copy()
        raw[3:7] = 0.0  # degenerate left quaternion in the raw prediction
        loss, grad = pose_loss_batch(raw[None, :], truth.to_vector()[None, :], w_pos=0.5)
        assert np.isfinite(loss)
        assert np.all(np.isfinite(grad))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 20:
            pred = rng.normal(size=16)
            truth = make_pose(rng=rng).to_vector()
            dots = [
                abs(pred[sl] / np.linalg.norm(pred[sl]) @ truth[sl])
                for sl in (slice(3, 7), slice(11, 15))
            ]
            if min(dots) < 1e-2:  # keep away from the |.| kink
                continue

            def fn(flat):
                loss, grad = pose_loss_batch(flat[None, :], truth[None, :], w_pos=0.3)
                return loss, grad[0]

            assert finite_diff_check(fn, pred) < 1e-4
            checked += 1


def two_slice_pose_loss(pred, truth, w_pos):
    """pose_loss_batch as it was written per arm, kept as the fused loss's reference."""
    mse_dims = np.asarray([0, 1, 2, 7, 8, 9, 10, 15])
    B = pred.shape[0]
    grad = np.zeros_like(pred)
    resid = pred[:, mse_dims] - truth[:, mse_dims]
    mse = float(np.sum(resid**2)) / (16 * B)
    grad[:, mse_dims] = w_pos * 2.0 * resid / (16 * B)
    orient = 0.0
    for sl in (slice(3, 7), slice(11, 15)):
        raw = pred[:, sl]
        q = truth[:, sl]
        qhat = numerics.l2_normalize_rows(raw)
        dots = np.sum(qhat * q, axis=1)
        orient += float(np.mean(1.0 - np.abs(dots))) / 2.0
        g_qhat = -np.sign(dots)[:, None] * q / (2.0 * B)
        grad[:, sl] += (1.0 - w_pos) * numerics.l2_normalize_rows_backward(raw, g_qhat)
    loss = w_pos * mse + (1.0 - w_pos) * orient
    return loss, grad


@settings(max_examples=150, deadline=None)
@given(
    B=st.integers(1, 70),
    w_pos=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31 - 1),
    quat_scale=st.sampled_from([0.0, 1e-13, 1e-12, 2e-12, 1e-6, 1.0]),
)
def test_fused_pose_loss_equals_two_slice_reference_bit_for_bit(B, w_pos, seed, quat_scale):
    rng = np.random.default_rng(seed)
    pred = rng.normal(size=(B, 16))
    truth = rng.normal(size=(B, 16))
    for sl in (slice(3, 7), slice(11, 15)):
        truth[:, sl] /= np.linalg.norm(truth[:, sl], axis=1, keepdims=True)
        # zero-norm and near-zero rows sit on both sides of the 1e-12 degenerate rule
        pred[rng.random(B) < 0.3, sl] *= quat_scale
    loss, grad = pose_loss_batch(pred, truth, w_pos)
    ref_loss, ref_grad = two_slice_pose_loss(pred, truth, w_pos)
    assert loss == ref_loss
    assert grad.tobytes() == ref_grad.tobytes()


def pose_dataset(seed=0):
    config = SyntheticConfig(
        demonstrators=3,
        demos_per_demonstrator=3,
        num_classes=4,
        feature_width=24,
        mean_durations=6.0,
        cycles=2,
        style_scale=0.6,
        noise_sigma=0.1,
        seed=seed,
    )
    return generate_synthetic(config)


def quick_encoder(dataset, seed=0):
    config = PipelineConfig(
        embed_dim=8, encoder_hidden=(32,), embed_epochs=10, batch_size=32, seed=seed
    )
    enc, _ = pretrain_encoder(dataset, config, seed=seed)
    return enc


class TestTrainDecoder:
    def test_zero_epochs_equals_initialization(self):
        ds = pose_dataset()
        enc = quick_encoder(ds)
        dec = train_pose_decoder(enc, ds.demos, epochs=0, seed=3, hidden=(16,))
        fresh = train_pose_decoder(enc, ds.demos, epochs=0, seed=3, hidden=(16,))
        np.testing.assert_array_equal(
            pack_arrays(dec.mlp.param_arrays())[0], pack_arrays(fresh.mlp.param_arrays())[0]
        )

    def test_encoder_frozen_bit_exact(self):
        ds = pose_dataset()
        enc = quick_encoder(ds)
        before = pack_arrays(enc.mlp.param_arrays())[0].copy()
        train_pose_decoder(enc, ds.demos, epochs=5, seed=0, hidden=(16,))
        np.testing.assert_array_equal(before, pack_arrays(enc.mlp.param_arrays())[0])

    def test_missing_poses_rejected(self):
        ds = pose_dataset()
        ds.demos[0].poses = None
        enc = quick_encoder(ds)
        with pytest.raises(ValueError):
            train_pose_decoder(enc, ds.demos, epochs=1, seed=0, hidden=(16,))

    def test_per_demonstrator_scope_returns_one_decoder_each(self):
        ds = pose_dataset()
        enc = quick_encoder(ds)
        decs = train_pose_decoder(
            enc, ds.demos, scope="per_demonstrator", epochs=2, seed=0, hidden=(16,)
        )
        assert sorted(decs) == sorted({d.demonstrator_id for d in ds.demos})

    def test_smooth_pose_function_fits_below_half_centimeter(self):
        ds = pose_dataset(seed=1)
        train, test = split_leave_one_out(ds, 0)
        enc = quick_encoder(train, seed=1)
        decs = train_pose_decoder(
            enc, train.demos, scope="per_demonstrator", epochs=150, seed=2, hidden=(32, 16)
        )
        metrics = eval_pose(decs, enc, test.demos)
        assert metrics["rmse_position_cm"] < 0.5


class TestEvalPose:
    def test_exact_predictions_score_zero(self):
        # the metric arithmetic itself: identical poses give (0, 0)
        from motionseg.imitation import QUAT_SLICES

        ds = pose_dataset()
        demo = ds.demos[0]
        pred = demo.poses.copy()
        sq = 0.0
        quat = np.zeros(demo.num_frames)
        for sl in (slice(0, 3), slice(8, 11)):
            sq += float(np.sum((pred[:, sl] - demo.poses[:, sl]) ** 2))
        for sl in QUAT_SLICES:
            quat += 1.0 - np.abs(np.sum(pred[:, sl] * demo.poses[:, sl], axis=1))
        assert sq == 0.0 and np.allclose(quat, 0.0)

    def test_zero_noise_is_bit_exact_rerun(self):
        ds = pose_dataset(seed=2)
        train, test = split_leave_one_out(ds, 0)
        enc = quick_encoder(train, seed=2)
        dec = train_pose_decoder(enc, train.demos, epochs=10, seed=1, hidden=(16,))
        a = eval_pose(dec, enc, test.demos, noise_sigma=0.0, seed=0)
        b = eval_pose(dec, enc, test.demos, noise_sigma=0.0, seed=99)
        assert a == b

    def test_noise_degrades_but_not_catastrophically(self):
        ds = pose_dataset(seed=3)
        train, test = split_leave_one_out(ds, 0)
        enc = quick_encoder(train, seed=3)
        decs = train_pose_decoder(
            enc, train.demos, scope="per_demonstrator", epochs=120, seed=4, hidden=(32, 16)
        )
        clean = eval_pose(decs, enc, test.demos, noise_sigma=0.0)
        noisy = eval_pose(decs, enc, test.demos, noise_sigma=0.15, seed=5)
        assert noisy["rmse_position_cm"] >= clean["rmse_position_cm"] * 0.9
        assert noisy["rmse_position_cm"] < clean["rmse_position_cm"] * 2.0

    def test_empty_test_set_rejected(self):
        ds = pose_dataset()
        enc = quick_encoder(ds)
        dec = train_pose_decoder(enc, ds.demos, epochs=1, seed=0, hidden=(16,))
        with pytest.raises(ValueError):
            eval_pose(dec, enc, [], noise_sigma=0.0)

    def test_trajectory_rows_cover_all_frames(self):
        ds = pose_dataset()
        enc = quick_encoder(ds)
        dec = train_pose_decoder(enc, ds.demos, epochs=1, seed=0, hidden=(16,))
        rows = trajectory_rows(dec, enc, ds.demos)
        assert len(rows) == ds.num_frames
        assert len(rows[0]) == 2 + 16


class TestEncodeOnce:
    @staticmethod
    def count_encodes(monkeypatch):
        calls = []

        def counting(encoder, features):
            calls.append(len(features))
            return encode_array(encoder, features)

        monkeypatch.setattr(imitation, "encode_array", counting)
        return calls

    def test_each_distinct_array_is_encoded_once_with_the_same_bits(self, monkeypatch):
        ds = pose_dataset()
        enc = quick_encoder(ds)
        features = ds.demos[0].features
        calls = self.count_encodes(monkeypatch)
        embed = encode_once(enc)
        first = embed(features)
        assert embed(features.copy()) is first and len(calls) == 1
        assert first.tobytes() == encode_array(enc, features).tobytes()
        embed(ds.demos[1].features)
        assert len(calls) == 2
        assert encode_once(embed) is embed

    def test_a_hash_clash_encodes_again(self, monkeypatch):
        ds = pose_dataset()
        enc = quick_encoder(ds)
        a, b = ds.demos[0].features, ds.demos[1].features
        monkeypatch.setattr(imitation, "hash", lambda key: 0, raising=False)
        embed = encode_once(enc)
        for features in (a, b, a):
            assert embed(features).tobytes() == encode_array(enc, features).tobytes()

    def test_decoders_and_metrics_equal_a_plain_encoders_bit_for_bit(self):
        ds = pose_dataset(seed=4)
        train, test = split_leave_one_out(ds, 0)
        enc = quick_encoder(train, seed=4)
        embed = encode_once(enc)
        for scope in SCOPES:
            a = train_pose_decoder(enc, train.demos, scope=scope, epochs=3, seed=6, hidden=(16,))
            b = train_pose_decoder(embed, train.demos, scope=scope, epochs=3, seed=6, hidden=(16,))
            decs_a, decs_b = (a, b) if scope != "pooled" else ({"": a}, {"": b})
            assert sorted(decs_a) == sorted(decs_b)
            for key in decs_a:
                assert decs_a[key].mlp.flat.tobytes() == decs_b[key].mlp.flat.tobytes()
            for sigma in (0.0, 0.15):
                assert eval_pose(a, enc, test.demos, sigma, seed=7) == eval_pose(
                    b, embed, test.demos, sigma, seed=7
                )

    def test_pose_table_encodes_training_demos_once_and_held_out_once_per_sigma(
        self, monkeypatch
    ):
        from motionseg.experiments import pose_table

        ds = pose_dataset(seed=5)
        train, test = split_leave_one_out(ds, 0)
        calls = self.count_encodes(monkeypatch)
        config = PipelineConfig(embed_dim=8, encoder_hidden=(16,), embed_epochs=1, batch_size=32)
        rows, _, _ = pose_table(
            ds, config, noise_sigmas=(0.0, 0.15), seed=1, decoder_hidden=(8,), decoder_epochs=1
        )
        assert len(rows) == 2 * 2
        assert len(calls) == len(train.demos) + 2 * len(test.demos)
        assert sum(calls) == train.num_frames + 2 * test.num_frames


class TestDecodePose:
    def test_decoded_quaternions_are_unit(self):
        dec = new_pose_decoder(6, hidden=(12,), seed=0)
        E = np.random.default_rng(0).normal(size=(9, 6))
        out = decode_pose(dec, E)
        for sl in (slice(3, 7), slice(11, 15)):
            np.testing.assert_allclose(np.linalg.norm(out[:, sl], axis=1), 1.0, atol=1e-9)
