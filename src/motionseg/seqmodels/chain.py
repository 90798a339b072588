"""Batched linear-chain recursions shared by the HMM, HSMM and CRF.

N ragged sequences travel as one zero-padded (N, T, K) array plus lengths;
Python loops run over time only. Messages stay in log space; the sum over
the previous state is a max-shifted matrix product (Rabiner 1989, §V.A),
redone exactly in log space wherever it would underflow.
"""

from __future__ import annotations

import numpy as np

LOG_EPS = -1e300  # stand-in for log(0) that survives arithmetic
TINY = 1e-290  # a shifted message entry below this may have lost terms that matter
BLOCK = 8  # sequences per GEMM in pair_sum


def logsumexp(a, axis=None):
    a = np.asarray(a, dtype=np.float64)
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    out = np.log(np.sum(np.exp(a - m), axis=axis)) + np.squeeze(m, axis=axis)
    return out


def log_clip(p):
    out = np.full(np.shape(p), LOG_EPS)
    np.log(p, out=out, where=p > 0)
    return out


def stack(sequences):
    """Frames of (T_n, d) sequences stacked into (F, d), plus the lengths (N,)."""
    seqs = [np.atleast_2d(np.asarray(s, dtype=np.float64)) for s in sequences]
    return np.vstack(seqs), np.array([s.shape[0] for s in seqs], dtype=np.int64)


def pad(flat, lengths):
    """Rows of flat, sequence after sequence, scattered into zero-padded (N, T, ...)."""
    check_lengths(lengths)
    out = np.zeros((len(lengths), int(np.max(lengths))) + flat.shape[1:])
    out[valid(lengths, out.shape[1])] = flat
    return out


def valid(lengths, T) -> np.ndarray:
    """(N, T) mask of the frames inside each sequence."""
    return np.arange(T) < np.asarray(lengths)[:, None]


def check_lengths(lengths):
    if len(lengths) == 0 or np.min(lengths) < 1:
        raise ValueError("empty sequence")


class Step:
    """logsumexp_j(x[:, j] + log_M[j, k]) for the rows of x, by a shifted matrix product."""

    def __init__(self, log_M):
        self.log_M = log_M
        self.shift = float(np.max(log_M))
        self.M = np.exp(log_M - self.shift)
        live = self.M.any(axis=0)  # columns some state can reach
        self.live = None if live.all() else live

    def __call__(self, x):
        m = x.max(axis=1, keepdims=True)
        s = np.exp(x - m) @ self.M
        if self.live is None:
            if s.min() > TINY:  # every entry positive: log_clip(s) is plain log(s)
                s = np.log(s, out=s)
                s += m + self.shift
                return s
        elif s[:, self.live].min() > TINY:
            return log_clip(s) + (m + self.shift)
        return logsumexp(x[:, :, None] + self.log_M, axis=1)


def forward_backward(log_unary, log_trans, lengths, log_init=None):
    """Posteriors of N padded chains: gamma (N, T, K), zero past each length;
    pairwise marginals summed over all frame pairs (K, K); log normalizers (N,)."""
    gamma, logz, la = posteriors(log_unary, log_trans, lengths, log_init)
    return gamma, pair_sum(la, gamma, Step(log_trans)), logz


def posteriors(log_unary, log_trans, lengths, log_init=None):
    """forward_backward without the pairwise marginals: gamma (N, T, K), zero
    past each length; log normalizers (N,); the forward messages (N, T, K)."""
    N, T, K = log_unary.shape
    check_lengths(lengths)
    last = np.asarray(lengths) - 1
    fwd, bwd = Step(log_trans), Step(log_trans.T)
    la = np.empty((N, T, K))
    la[:, 0] = log_unary[:, 0] if log_init is None else log_init + log_unary[:, 0]
    for t in range(1, T):
        la[:, t] = log_unary[:, t] + fwd(la[:, t - 1])
    logz = logsumexp(la[np.arange(N), last], axis=1)
    lb = np.zeros((N, T, K))
    for t in range(T - 2, -1, -1):
        lb[:, t] = bwd(log_unary[:, t + 1] + lb[:, t + 1])
        lb[t >= last, t] = 0.0  # a sequence's last frame, and padding past it
    lb += la  # gamma takes over the backward buffer
    lb -= lb.max(axis=2, keepdims=True)
    gamma = np.exp(lb, out=lb)
    gamma /= gamma.sum(axis=2, keepdims=True)
    gamma[~valid(lengths, T)] = 0.0
    return gamma, logz, la


def pair_sum(log_msg, post, step):
    """Σ over every frame pair (t, t+1) of every sequence of P(j at t, k at t+1).

    log_msg holds forward messages, post the posterior of entering each state
    (zero past each end). A pair posterior is post[t + 1, k] times the share
    of the message into k from j: one GEMM per block of sequences.
    """
    K = log_msg.shape[-1]
    shares, redone = np.zeros((K, K)), np.zeros((K, K))
    for lo in range(0, log_msg.shape[0], BLOCK):
        x = log_msg[lo : lo + BLOCK, :-1].reshape(-1, K)
        nxt = post[lo : lo + BLOCK, 1:].reshape(-1, K)
        P = x - x.max(axis=1, keepdims=True)
        into = np.exp(P, out=P) @ step.M
        ok = into > TINY
        redo = ~np.all(ok | (nxt == 0.0), axis=1)
        shares += P.T @ np.divide(nxt, into, out=np.zeros_like(into), where=ok & ~redo[:, None])
        if redo.any():
            scores = x[redo, :, None] + step.log_M
            share = np.exp(scores - logsumexp(scores, axis=1)[:, None, :])
            redone += (share * nxt[redo, None, :]).sum(axis=0)
    return step.M * shares + redone


def viterbi(log_unary, log_trans, lengths, log_init=None):
    """Best state path of each of N padded chains: (list of (T_n,) paths, (N,) scores)."""
    N, T, K = log_unary.shape
    check_lengths(lengths)
    last = np.asarray(lengths) - 1
    done = int(last.min())  # from here on some sequences have ended
    delta = log_unary[:, 0] if log_init is None else log_init + log_unary[:, 0]
    back = np.zeros((T, N, K), dtype=np.int64)
    rows, cols = np.arange(N), np.arange(K)
    for t in range(1, T):  # a finished sequence keeps its last delta
        scores = delta[:, :, None] + log_trans
        back[t] = prev = scores.argmax(axis=1)
        new = scores[rows[:, None], prev, cols] + log_unary[:, t]  # the max, gathered
        delta = new if t <= done else np.where((t <= last)[:, None], new, delta)
    state, best = delta.argmax(axis=1), delta.max(axis=1)
    path = np.zeros((T, N), dtype=np.int64)
    for t in range(T - 1, -1, -1):
        path[t] = state
        prev = back[t, rows, state]
        state = prev if t <= done else np.where(t <= last, prev, state)
    return [p[:n] for p, n in zip(path.T, lengths)], best
