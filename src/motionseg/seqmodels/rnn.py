"""Bidirectional LSTM frame classifier trained with backpropagation through time.

Sequences are chunked into stride-length windows; batches pad windows to a
common length and mask the padding out of the loss. The backward-direction
cell consumes each window reversed within its own true length, so padding
never corrupts valid hidden states. Prediction runs all windows of a
sequence as one padded batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import numerics
from ..errors import ShapeError
from . import chain


@dataclass
class LstmCell:
    w: np.ndarray  # (4H, in), gate order i, f, g, o
    u: np.ndarray  # (4H, H)
    b: np.ndarray  # (4H,)

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        self.u = np.asarray(self.u, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        H = self.u.shape[-1]
        if self.w.ndim != 2 or len(self.w) != 4 * H or self.u.shape != (4 * H, H) or self.b.shape != (4 * H,):
            raise ShapeError("lstm cell wants w (4H, in), u (4H, H), b (4H,)")
        numerics.check_finite("lstm cell", w=self.w, u=self.u, b=self.b)

    @property
    def hidden(self) -> int:
        return self.u.shape[1]


def new_cell(input_dim: int, hidden: int, rng) -> LstmCell:
    limit_w = np.sqrt(6.0 / (input_dim + hidden))
    limit_u = np.sqrt(6.0 / (2 * hidden))
    w = rng.uniform(-limit_w, limit_w, size=(4 * hidden, input_dim))
    u = rng.uniform(-limit_u, limit_u, size=(4 * hidden, hidden))
    b = np.zeros(4 * hidden)
    b[hidden : 2 * hidden] = 1.0  # forget-gate bias
    return LstmCell(w, u, b)


# sigmoid(z) = (1 + tanh(z / 2)) / 2 on the i, f, o gates; g is a plain tanh
_HALF = np.array([0.5, 0.5, 1.0, 0.5])[:, None, None]
_SHIFT = 1.0 - _HALF


def lstm_forward(cell: LstmCell, X) -> tuple[np.ndarray, tuple]:
    """Run the cell over (B, T, in); returns hidden states (B, T, H) and caches.

    The gates live in one (T, 4, H, B) buffer, so every step works on
    contiguous blocks. The input projection W @ x + b of all steps is one
    batched matmul before the time loop; each step adds U @ h in place and
    activates all four gates with one tanh, the halving of the sigmoid gates
    folded exactly into their rows of W, U and b.
    """
    B, T, d = X.shape
    H = cell.hidden
    w = (cell.w.reshape(4, H, d) * _HALF).reshape(4 * H, d)
    u = (cell.u.reshape(4, H, H) * _HALF).reshape(4 * H, H)
    gates = np.matmul(w, X.transpose(1, 2, 0)).reshape(T, 4, H, B)
    gates += cell.b.reshape(4, H, 1) * _HALF
    hs = np.zeros((T + 1, H, B))  # hs[t] is the state before step t
    cs = np.zeros((T + 1, H, B))
    tanh_c = np.empty((T, H, B))
    for t in range(T):
        z = gates[t]
        z += (u @ hs[t]).reshape(4, H, B)
        np.tanh(z, out=z)
        z *= _HALF
        z += _SHIFT
        i, f, g, o = z
        c = cs[t + 1]
        np.multiply(f, cs[t], out=c)
        c += i * g
        np.tanh(c, out=tanh_c[t])
        np.multiply(o, tanh_c[t], out=hs[t + 1])
    return hs[1:].transpose(2, 0, 1), (X, gates, cs, tanh_c, hs)


def lstm_backward(cell: LstmCell, caches, grad_h_seq):
    """BPTT through a cached forward run; grad_h_seq is (B, T, H).

    Returns (dw, du, db), each one GEMM or sum after the time loop. The gate
    buffer of the caches is overwritten with d loss / d pre-activations, so a
    cache serves one backward pass.
    """
    X, gates, cs, tanh_c, hs = caches
    B, T, H = grad_h_seq.shape
    i, f, g, o = gates.transpose(1, 0, 2, 3)
    # all timesteps at once: d c / d h, the forget gate, and in place of each
    # gate the factor that turns d c (d h for o) into d pre-activation
    dc_dh = (1.0 - tanh_c * tanh_c) * o
    f_keep = f.copy()
    o[...] = (1.0 - o) * o * tanh_c
    di_dc = (1.0 - i) * i * g
    g[...] = (1.0 - g * g) * i
    i[...] = di_dc
    f[...] = f * (1.0 - f) * cs[:-1]
    del di_dc
    grad = grad_h_seq.transpose(1, 2, 0)
    u_t = cell.u.T
    dh_next = np.zeros((H, B))
    dc_next = np.zeros((H, B))
    for t in range(T - 1, -1, -1):
        dh = grad[t] + dh_next
        dc = dh * dc_dh[t]
        dc += dc_next
        d = gates[t]
        d[:3] *= dc
        d[3] *= dh
        dc_next = dc * f_keep[t]
        dh_next = u_t @ d.reshape(4 * H, B)
    del dc_dh, f_keep
    dz = gates.reshape(T, 4 * H, B).transpose(1, 0, 2).reshape(4 * H, T * B)
    dw = dz @ X.transpose(1, 0, 2).reshape(T * B, -1)
    du = dz @ hs[:-1].transpose(0, 2, 1).reshape(T * B, H)
    return dw, du, dz.sum(axis=1)


@dataclass
class BiRnn:
    fwd: LstmCell
    bwd: LstmCell
    w_out: np.ndarray  # (C, 2H)
    b_out: np.ndarray  # (C,)
    stride: int

    def __post_init__(self):
        self.w_out = np.asarray(self.w_out, dtype=np.float64)
        self.b_out = np.asarray(self.b_out, dtype=np.float64)
        if self.bwd.w.shape[1] != self.fwd.w.shape[1]:
            raise ShapeError("both cells must take inputs of one width")
        if self.w_out.ndim != 2 or self.w_out.shape[1] != self.fwd.hidden + self.bwd.hidden:
            raise ShapeError("output projection width must be 2H")
        if self.b_out.shape != self.w_out.shape[:1]:
            raise ShapeError("output bias must be (C,)")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        numerics.check_finite("birnn", w_out=self.w_out, b_out=self.b_out)

    @property
    def num_labels(self) -> int:
        return self.w_out.shape[0]

    def param_arrays(self) -> list[np.ndarray]:
        return [
            self.fwd.w, self.fwd.u, self.fwd.b,
            self.bwd.w, self.bwd.u, self.bwd.b,
            self.w_out, self.b_out,
        ]


def new_birnn(input_dim: int, num_labels: int, hidden: int, stride: int, seed: int) -> BiRnn:
    rng = np.random.default_rng(seed)
    fwd = new_cell(input_dim, hidden, rng)
    bwd = new_cell(input_dim, hidden, rng)
    limit = np.sqrt(6.0 / (2 * hidden + num_labels))
    w_out = rng.uniform(-limit, limit, size=(num_labels, 2 * hidden))
    return BiRnn(fwd=fwd, bwd=bwd, w_out=w_out, b_out=np.zeros(num_labels), stride=stride)


def _reverse_within_lengths(X, lengths):
    """Xr[b, t] = X[b, len_b - 1 - t] for t < len_b, zero on padding."""
    mask = chain.valid(lengths, X.shape[1])
    idx = np.maximum(lengths[:, None] - 1 - np.arange(X.shape[1]), 0)
    return X[np.arange(X.shape[0])[:, None], idx] * mask[..., None], idx, mask


def birnn_forward(rnn: BiRnn, X, lengths):
    """Logits (B, T, C) plus caches for backward; padding rows are garbage."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 3 or X.shape[2] != rnn.fwd.w.shape[1]:
        raise ShapeError(f"birnn wants (B, T, {rnn.fwd.w.shape[1]}) input, got {X.shape}")
    lengths = np.asarray(lengths, dtype=np.int64)
    Xr, idx, mask = _reverse_within_lengths(X, lengths)
    hf, cache_f = lstm_forward(rnn.fwd, X)
    hr, cache_r = lstm_forward(rnn.bwd, Xr)
    hb = hr[np.arange(X.shape[0])[:, None], idx] * mask[..., None]
    concat = np.concatenate([hf, hb], axis=2)
    logits = concat @ rnn.w_out.T + rnn.b_out
    return logits, (X, lengths, idx, mask, cache_f, cache_r, concat)


def birnn_backward(rnn: BiRnn, cache, grad_logits):
    """Gradients for all parameter arrays given d loss / d logits."""
    X, lengths, idx, mask, cache_f, cache_r, concat = cache
    B, T, _ = X.shape
    H = rnn.fwd.hidden
    g = grad_logits * mask[..., None]
    flat_g = g.reshape(-1, g.shape[2])
    dw_out = flat_g.T @ concat.reshape(-1, concat.shape[2])
    db_out = flat_g.sum(axis=0)
    dconcat = g @ rnn.w_out
    dhf = dconcat[:, :, :H]
    dhb = dconcat[:, :, H:]
    # mirror the gather: grad w.r.t. reversed-run outputs
    dhr = dhb[np.arange(B)[:, None], idx] * mask[..., None]
    dwf, duf, dbf = lstm_backward(rnn.fwd, cache_f, dhf)
    dwr, dur, dbr = lstm_backward(rnn.bwd, cache_r, dhr)
    return [dwf, duf, dbf, dwr, dur, dbr, dw_out, db_out]


def _softmax(logits):
    m = logits.max(axis=-1, keepdims=True)
    e = np.exp(logits - m)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy_and_grad(logits, labels, mask):
    """Mean CE over valid frames; labels are 1..C, mask flags valid frames."""
    probs = _softmax(logits)
    y = np.asarray(labels, dtype=np.int64) - 1
    B, T, C = logits.shape
    n_valid = int(mask.sum())
    picked = probs[np.arange(B)[:, None], np.arange(T)[None, :], y]
    picked = np.maximum(picked, 1e-300)
    loss = float(-(np.log(picked) * mask).sum() / n_valid)
    grad = probs.copy()
    grad[np.arange(B)[:, None], np.arange(T)[None, :], y] -= 1.0
    grad *= mask[..., None] / n_valid
    return loss, grad


def make_windows(sequences, labels, stride: int):
    """Chunk (T, d) sequences into windows of at most `stride` frames."""
    wins, wlabs = [], []
    for X, y in zip(sequences, labels):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        y = np.asarray(y, dtype=np.int64)
        for s in range(0, X.shape[0], stride):
            wins.append(X[s : s + stride])
            wlabs.append(y[s : s + stride])
    return wins, wlabs


def _pad_batch(wins, wlabs):
    """Windows zero-padded to (B, T, d), labels (B, T) padded with label 1, which
    the mask (B, T) drops from the loss and the gradient, and lengths (B,)."""
    flat, lengths = chain.stack(wins)
    X = chain.pad(flat, lengths)
    mask = chain.valid(lengths, X.shape[1])
    y = np.ones(mask.shape, dtype=np.int64)
    y[mask] = np.concatenate(wlabs)
    return X, y, lengths, mask


def rnn_train(sequences, labels, num_labels: int, config, seed: int) -> tuple[BiRnn, list[float]]:
    """Train on labeled embedded sequences; returns (model, per-batch loss trace).

    config is a pipeline.PipelineConfig; rnn_hidden, stride (the window
    length), rnn_batch, rnn_lr and rnn_epochs set the run.
    """
    wins, wlabs = make_windows(sequences, labels, config.stride)
    if not wins:
        raise ValueError("no training windows")
    for lab in wlabs:
        if lab.size and (lab.min() < 1 or lab.max() > num_labels):
            raise ValueError(f"labels must lie in 1..{num_labels}")
    rng = np.random.default_rng(seed)
    rnn = new_birnn(
        wins[0].shape[1], num_labels, config.rnn_hidden, config.stride, seed=rng.integers(2**32)
    )
    params = rnn.param_arrays()
    opt = numerics.make_optimizer(params, lr=config.rnn_lr)
    trace = []
    for _ in range(int(config.rnn_epochs)):
        order = rng.permutation(len(wins))
        for s in range(0, len(order), config.rnn_batch):
            chunk = order[s : s + config.rnn_batch]
            X, y, lengths, mask = _pad_batch([wins[i] for i in chunk], [wlabs[i] for i in chunk])
            logits, cache = birnn_forward(rnn, X, lengths)
            loss, dlogits = cross_entropy_and_grad(logits, y, mask)
            grads = birnn_backward(rnn, cache, dlogits)
            numerics.optimizer_step(params, grads, opt)
            trace.append(loss)
    return rnn, trace


def _predict_padded(rnn: BiRnn, X, lengths):
    """Labels (1..C), max-softmax confidences and probabilities of a padded batch."""
    logits, _ = birnn_forward(rnn, X, lengths)
    probs = _softmax(logits)
    labels = np.argmax(probs, axis=2) + 1
    conf = np.take_along_axis(probs, labels[..., None] - 1, axis=2)[..., 0]
    return labels, conf, probs


def rnn_predict(rnn: BiRnn, window) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Labels (1..C), max-softmax confidences, and full (T, C) probabilities."""
    X = np.atleast_2d(np.asarray(window, dtype=np.float64))
    if X.shape[0] == 0:
        raise ValueError("empty window")
    labels, conf, probs = _predict_padded(rnn, X[None], np.asarray([X.shape[0]]))
    return labels[0], conf[0], probs[0]


def rnn_predict_sequence(rnn: BiRnn, X) -> tuple[np.ndarray, np.ndarray]:
    """Chunk a long sequence into stride windows, as training does, and label them as one batch."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[0] == 0:
        raise ValueError("empty sequence")
    wins, ones = make_windows([X], [np.ones(X.shape[0])], rnn.stride)  # the labels go unused
    batch, _, lengths, mask = _pad_batch(wins, ones)
    labels, conf, _ = _predict_padded(rnn, batch, lengths)
    return labels[mask], conf[mask]  # the valid frames of each window, in order
