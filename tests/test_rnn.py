import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionseg.errors import ShapeError
from motionseg.numerics import finite_diff_check, pack_arrays, unpack_arrays
from motionseg.pipeline import PipelineConfig
from motionseg.seqmodels.rnn import (
    BiRnn,
    LstmCell,
    _pad_batch,
    birnn_backward,
    birnn_forward,
    cross_entropy_and_grad,
    new_birnn,
    rnn_predict,
    rnn_predict_sequence,
    rnn_train,
)


def test_bias_only_network_predicts_bias_argmax():
    H, d, C = 4, 3, 5
    zero_cell = lambda: LstmCell(np.zeros((4 * H, d)), np.zeros((4 * H, H)), np.zeros(4 * H))
    bias = np.zeros(C)
    bias[2] = 3.0  # one-hot boost for label 3
    rnn = BiRnn(fwd=zero_cell(), bwd=zero_cell(), w_out=np.zeros((C, 2 * H)), b_out=bias, stride=8)
    X = np.random.default_rng(0).normal(size=(6, d))
    labels, conf, probs = rnn_predict(rnn, X)
    assert (labels == 3).all()
    expected_conf = np.exp(3.0) / (np.exp(3.0) + (C - 1))
    np.testing.assert_allclose(conf, expected_conf, rtol=1e-12)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_probabilities_sum_to_one_and_confidence_in_range():
    rnn = new_birnn(input_dim=3, num_labels=4, hidden=5, stride=8, seed=0)
    X = np.random.default_rng(1).normal(size=(7, 3))
    labels, conf, probs = rnn_predict(rnn, X)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    assert ((conf > 0) & (conf <= 1)).all()
    assert labels.min() >= 1 and labels.max() <= 4


def test_bptt_matches_finite_differences():
    rng = np.random.default_rng(2)
    rnn = new_birnn(input_dim=2, num_labels=3, hidden=3, stride=6, seed=3)
    # two windows of different lengths exercises the padding mask
    X = rng.normal(size=(2, 5, 2))
    lengths = np.array([5, 3])
    mask = np.arange(5)[None, :] < lengths[:, None]
    y = rng.integers(1, 4, size=(2, 5))
    params = rnn.param_arrays()
    flat0, shapes = pack_arrays(params)

    def fn(flat):
        vals = unpack_arrays(flat, shapes)
        trial = BiRnn(
            fwd=LstmCell(vals[0], vals[1], vals[2]),
            bwd=LstmCell(vals[3], vals[4], vals[5]),
            w_out=vals[6],
            b_out=vals[7],
            stride=6,
        )
        logits, cache = birnn_forward(trial, X, lengths)
        loss, dlogits = cross_entropy_and_grad(logits, y, mask)
        grads = birnn_backward(trial, cache, dlogits)
        return loss, pack_arrays(grads)[0]

    assert finite_diff_check(fn, flat0) < 1e-4


def test_reversed_window_with_swapped_cells_reverses_prediction():
    rng = np.random.default_rng(4)
    rnn = new_birnn(input_dim=3, num_labels=4, hidden=5, stride=10, seed=5)
    X = rng.normal(size=(9, 3))
    labels, conf, probs = rnn_predict(rnn, X)
    H = rnn.fwd.hidden
    swapped = BiRnn(
        fwd=rnn.bwd,
        bwd=rnn.fwd,
        w_out=np.concatenate([rnn.w_out[:, H:], rnn.w_out[:, :H]], axis=1),
        b_out=rnn.b_out,
        stride=rnn.stride,
    )
    labels_r, conf_r, probs_r = rnn_predict(swapped, X[::-1])
    np.testing.assert_allclose(probs_r[::-1], probs, atol=1e-12)
    np.testing.assert_array_equal(labels_r[::-1], labels)


def test_training_fits_sign_rule():
    rng = np.random.default_rng(6)
    seqs, labs = [], []
    for _ in range(6):
        X = rng.normal(size=(24, 4))
        y = np.where(X[:, 0] > 0, 1, 2)
        seqs.append(X)
        labs.append(y)
    config = PipelineConfig(rnn_hidden=8, stride=12, rnn_batch=4, rnn_lr=0.02, rnn_epochs=60)
    rnn, trace = rnn_train(seqs, labs, num_labels=2, config=config, seed=0)
    hits = total = 0
    for X, y in zip(seqs, labs):
        pred, _ = rnn_predict_sequence(rnn, X)
        hits += int((pred == y).sum())
        total += len(y)
    assert hits / total == 1.0
    assert trace[-1] < trace[0]


def test_training_is_deterministic():
    rng = np.random.default_rng(7)
    seqs = [rng.normal(size=(10, 2)) for _ in range(3)]
    labs = [np.where(s[:, 0] > 0, 1, 2) for s in seqs]
    config = PipelineConfig(rnn_hidden=4, stride=5, rnn_batch=2, rnn_lr=0.05, rnn_epochs=3)
    outs = []
    for _ in range(2):
        rnn, _ = rnn_train(seqs, labs, num_labels=2, config=config, seed=11)
        outs.append(pack_arrays(rnn.param_arrays())[0])
    np.testing.assert_array_equal(outs[0], outs[1])


def test_out_of_range_labels_rejected():
    rng = np.random.default_rng(9)
    seqs = [rng.normal(size=(6, 2))]
    config = PipelineConfig(rnn_hidden=3, stride=4, rnn_batch=1, rnn_lr=0.05, rnn_epochs=1)
    with pytest.raises(ValueError):
        rnn_train(seqs, [np.array([1, 2, 3, 1, 2, 5])], num_labels=3, config=config, seed=0)


def test_empty_window_raises():
    rnn = new_birnn(input_dim=2, num_labels=2, hidden=3, stride=4, seed=0)
    with pytest.raises(ValueError):
        rnn_predict(rnn, np.zeros((0, 2)))


def test_predict_sequence_covers_every_frame():
    rnn = new_birnn(input_dim=2, num_labels=3, hidden=3, stride=4, seed=1)
    X = np.random.default_rng(8).normal(size=(11, 2))
    labels, conf = rnn_predict_sequence(rnn, X)
    assert labels.shape == (11,) and conf.shape == (11,)


@pytest.mark.parametrize("length", [1, 7, 8, 9, 23])  # stride 8: 1, s-1, s, s+1, 3s-1
def test_batched_predict_sequence_matches_per_window_predictions(length):
    rnn = new_birnn(input_dim=3, num_labels=4, hidden=5, stride=8, seed=12)
    rng = np.random.default_rng(length)
    for cell in (rnn.fwd, rnn.bwd):  # with zero biases, zero padding would leave h at 0
        cell.b += rng.normal(size=cell.b.shape)
    X = rng.normal(size=(length, 3))
    labels, conf = rnn_predict_sequence(rnn, X)
    windows = [rnn_predict(rnn, X[s : s + 8]) for s in range(0, length, 8)]
    np.testing.assert_array_equal(labels, np.concatenate([w[0] for w in windows]))
    np.testing.assert_allclose(conf, np.concatenate([w[1] for w in windows]), rtol=0, atol=1e-12)


def test_bptt_matches_finite_differences_on_ragged_batch():
    rng = np.random.default_rng(13)
    rnn = new_birnn(input_dim=3, num_labels=4, hidden=4, stride=7, seed=14)
    lengths = np.array([7, 1, 4, 6, 2])
    X = rng.normal(size=(5, 7, 3))
    mask = np.arange(7)[None, :] < lengths[:, None]
    y = rng.integers(1, 5, size=(5, 7))
    flat0, shapes = pack_arrays(rnn.param_arrays())

    def fn(flat):
        vals = unpack_arrays(flat, shapes)
        trial = BiRnn(
            fwd=LstmCell(vals[0], vals[1], vals[2]),
            bwd=LstmCell(vals[3], vals[4], vals[5]),
            w_out=vals[6],
            b_out=vals[7],
            stride=7,
        )
        logits, cache = birnn_forward(trial, X, lengths)
        loss, dlogits = cross_entropy_and_grad(logits, y, mask)
        return loss, pack_arrays(birnn_backward(trial, cache, dlogits))[0]

    assert finite_diff_check(fn, flat0) < 1e-4


def test_empty_sequence_raises():
    rnn = new_birnn(input_dim=2, num_labels=2, hidden=3, stride=4, seed=0)
    with pytest.raises(ValueError, match="empty sequence"):
        rnn_predict_sequence(rnn, np.zeros((0, 2)))


def test_feature_width_mismatch_raises_shape_error():
    rnn = new_birnn(input_dim=2, num_labels=2, hidden=3, stride=4, seed=0)
    with pytest.raises(ShapeError):
        birnn_forward(rnn, np.zeros((1, 5, 3)), np.array([5]))
    with pytest.raises(ShapeError):
        rnn_predict_sequence(rnn, np.zeros((9, 3)))


def loop_padded_batch(wins, wlabs):
    """Reference padding: one window at a time into zeros (features) and ones (labels)."""
    T = max(w.shape[0] for w in wins)
    X = np.zeros((len(wins), T, wins[0].shape[1]))
    y = np.ones((len(wins), T), dtype=np.int64)
    lengths = np.empty(len(wins), dtype=np.int64)
    for i, (w, lab) in enumerate(zip(wins, wlabs)):
        X[i, : w.shape[0]] = w
        y[i, : lab.shape[0]] = lab
        lengths[i] = w.shape[0]
    return X, y, lengths, np.arange(T)[None, :] < lengths[:, None]


@settings(max_examples=100, deadline=None)
@given(lengths=st.lists(st.integers(1, 12), min_size=1, max_size=9), width=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_pad_batch_matches_loop_padding(lengths, width, seed):
    rng = np.random.default_rng(seed)
    wins = [rng.normal(size=(n, width)) for n in lengths]
    wlabs = [rng.integers(1, 6, size=n) for n in lengths]
    for got, want in zip(_pad_batch(wins, wlabs), loop_padded_batch(wins, wlabs)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def test_lstm_cell_bias_of_wrong_shape_rejected():
    cell = new_birnn(input_dim=2, num_labels=3, hidden=3, stride=4, seed=0).fwd
    for b in (cell.b[:-1], np.zeros((1,)), cell.b.reshape(4, 3)):
        with pytest.raises(ShapeError, match="b \\(4H,\\)"):
            LstmCell(cell.w, cell.u, b)


def test_birnn_output_bias_of_wrong_shape_rejected():
    rnn = new_birnn(input_dim=2, num_labels=3, hidden=3, stride=4, seed=0)
    for b_out in (np.zeros(1), np.zeros(4), np.zeros((3, 1))):
        with pytest.raises(ShapeError, match="output bias"):
            BiRnn(rnn.fwd, rnn.bwd, rnn.w_out, b_out, stride=4)


def test_birnn_cells_of_different_input_widths_rejected():
    rnn = new_birnn(input_dim=2, num_labels=3, hidden=3, stride=4, seed=0)
    wide = new_birnn(input_dim=5, num_labels=3, hidden=3, stride=4, seed=0).bwd
    with pytest.raises(ShapeError, match="one width"):
        BiRnn(rnn.fwd, wide, rnn.w_out, rnn.b_out, stride=4)
