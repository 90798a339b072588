"""Batched linear-chain recursions shared by the HMM, HSMM and CRF.

N ragged sequences travel as one zero-padded (N, T, K) array plus lengths;
Python loops run over time only. Forward-backward runs in probability space
(Rabiner 1989, "A Tutorial on Hidden Markov Models", §V.A): emissions are
exponentiated once, shifted by each frame's maximum, and each step divides
the messages by their mass; the log tables come from one log pass after the
loop. Where that cannot vouch for its result, the call is redone by the
log-space loop, whose sum over the previous state is one exact logsumexp.
The backward recursion reads only the emissions, never the forward messages,
so one time loop carries both directions as a (2, N, K) stack.
"""

from __future__ import annotations

import numpy as np

LOG_EPS = -1e300  # stand-in for log(0) that survives arithmetic
TINY = 1e-290  # a shifted message entry below this may have lost terms that matter
BLOCK = 8  # sequences per GEMM in pair_sum
CHECK_TOL = 1e-12  # the scaled posteriors' largest relative disagreement in log Z (rounding: < 3e-14)
PAIR_BLOCK = 1 << 14  # floats of frame factors the scaled loop copies at once


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
    """Rows of flat, sequence after sequence, copied into zero-padded (N, T, ...)."""
    check_lengths(lengths)
    out = np.zeros((len(lengths), int(np.max(lengths))) + flat.shape[1:])
    for row, n, start in zip(out, lengths, np.cumsum(lengths) - lengths):
        row[:n] = flat[start : start + n]
    return out


def valid(lengths, T) -> np.ndarray:
    """(N, T) mask of the frames inside each sequence."""
    return np.arange(T) < np.asarray(lengths)[:, None]


def check_lengths(lengths):
    if len(lengths) == 0 or np.min(lengths) < 1:
        raise ValueError("empty sequence")


def forward_backward(log_unary, log_trans, lengths, log_init=None):
    """Posteriors of N padded chains: gamma (N, T, K), zero past each length;
    pairwise marginals summed over all frame pairs (K, K); log normalizers (N,)."""
    gamma, logz, la = posteriors(log_unary, log_trans, lengths, log_init)
    return gamma, pair_sum(la, gamma, log_trans), logz


def posteriors(log_unary, log_trans, lengths, log_init=None):
    """forward_backward without the pairwise marginals: gamma (N, T, K), zero
    past each length; log normalizers (N,); the forward messages (N, T, K)."""
    check_lengths(lengths)
    scaled = scaled_posteriors(log_unary, log_trans, lengths, log_init)
    return scaled if scaled is not None else log_posteriors(log_unary, log_trans, lengths, log_init)


def scaled_posteriors(log_unary, log_trans, lengths, log_init=None):
    """posteriors by Rabiner's scaled recursion in probability space, or None
    where the result cannot be vouched for: a valid step's mass underflowed
    (normaliser <= TINY), or some frame's posterior mass disagrees with log Z
    (a term lost in one direction only)."""
    N, T, K = log_unary.shape
    last = np.asarray(lengths) - 1
    shift = float(np.max(log_trans))
    M = np.exp(log_trans - shift)
    MM = np.stack([M, M.T])  # forward and backward transitions, one batched product a step
    init = 0.0 if log_init is None else float(np.max(log_init))
    m = np.maximum.reduce(log_unary, axis=2)  # (N, T) frame maxima
    # b: the frame factors exp(u - max u), then gamma; pair: the factors of
    # frames t (forward) and T - 1 - t (backward) for a block of steps
    b = np.subtract(log_unary, m[:, :, None])
    np.exp(b, out=b)
    rows = max(1, PAIR_BLOCK // (2 * N * K))
    pair = np.empty((min(rows, T), 2, N, K))

    def factors(t0, t1):
        f = pair[: t1 - t0]
        f[:, 0], f[:, 1] = b[:, t0:t1].transpose(1, 0, 2), b[:, T - t1 : T - t0][:, ::-1].transpose(1, 0, 2)
        return f

    # q[0][:, t] is the forward message into frame t before its factor (after the
    # loop, the log forward messages), q[1][:, t] the backward message at frame
    # T - 1 - t; x the two leaving step t, divided by c[t]
    q, x = np.empty((2, N, T, K)), np.empty((2, N, K))
    q[0, :, 0] = 1.0 if log_init is None else np.exp(log_init - init)
    q[1, :, 0] = 1.0
    c, ones = np.empty((T, 2, N, 1)), np.ones((K, 1))
    restarts = {T - 1 - int(n): np.flatnonzero(last == n) for n in np.unique(last[last < T - 1])}
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for t in range(T):
            if t % rows == 0:
                f = factors(t, min(T, t + rows))
            if t:
                np.matmul(x, MM, out=q[:, :, t])
                if t in restarts:  # a backward message starts at 1 on its sequence's last frame
                    q[1, restarts[t], t] = 1.0
            np.multiply(q[:, :, t], f[t % rows], out=x)
            np.matmul(x, ones, out=c[t])
            np.divide(x, c[t], out=x)
        ok = valid(lengths, T)  # (N, T)
        c = c[:, :, :, 0].transpose(1, 2, 0)  # (2, N, T)
        if not (np.all(c[0] > TINY, where=ok) and np.all(c[1] > TINY, where=ok[:, ::-1])):
            return None
        # log offsets of q: the frame maxima, the transition shift and the masses
        # divided out, summed along each direction from its first frame
        logc = np.log(c)
        logc[0] += m
        logc[1] += m[:, ::-1]
        logc += shift
        logc[0][~ok] = 0.0
        logc[1][~ok[:, ::-1]] = 0.0
        fwd, bwd = np.cumsum(logc, axis=2)
        fwd += init
        logz = fwd[np.arange(N), last] - shift
        fwd[:, 1:] = fwd[:, :-1]  # the offset of q[0][:, t] sums the steps before t
        fwd[:, 0] = init
        la = q[0]
        la *= b  # the forward messages, each frame's factor taken
        gamma = np.multiply(la, q[1][:, ::-1], out=b)
        mass = np.matmul(gamma, ones)[:, :, 0]
        # log of each frame's total mass against log Z
        check = np.log(mass)
        check += fwd
        check += m
        check[:, :-1] += bwd[:, -2::-1]
        if not np.all(np.abs(check - logz[:, None]) <= CHECK_TOL * np.maximum(1.0, np.abs(logz))[:, None], where=ok):
            return None
        gamma /= mass[:, :, None]
        np.log(la, out=la)
        np.maximum(la, LOG_EPS, out=la)
        la += (fwd + m)[:, :, None]
    if restarts:
        gamma[~ok] = 0.0
        la[~ok] = 0.0  # past a sequence's end the forward messages are unused
    return gamma, logz, la


def log_posteriors(log_unary, log_trans, lengths, log_init=None):
    """posteriors with messages in log space, each step one logsumexp over the
    previous state for both directions: the fallback of scaled_posteriors."""
    N, T, K = log_unary.shape
    last = np.asarray(lengths) - 1
    trans = np.stack([log_trans, log_trans.T])[:, None]  # (2, 1, K, K): forward, backward
    la, lb = np.empty((N, T, K)), np.zeros((N, T, K))
    la[:, 0] = log_unary[:, 0] if log_init is None else log_init + log_unary[:, 0]
    x = np.empty((2, N, K))  # the messages leaving t - 1 forward and T - t backward
    for t in range(1, T):
        b = T - 1 - t
        x[0] = la[:, t - 1]
        np.add(log_unary[:, b + 1], lb[:, b + 1], out=x[1])
        out = logsumexp(x[..., None] + trans, axis=2)
        np.add(log_unary[:, t], out[0], out=la[:, t])
        lb[:, b] = out[1]
        lb[b >= last, b] = 0.0  # a sequence's last frame, and padding past it
    logz = logsumexp(la[np.arange(N), last], axis=1)
    lb += la  # gamma takes over the backward buffer
    lb -= lb.max(axis=2, keepdims=True)
    gamma = np.exp(lb, out=lb)
    gamma /= gamma.sum(axis=2, keepdims=True)
    gamma[~valid(lengths, T)] = 0.0
    return gamma, logz, la


def pair_sum(log_msg, post, log_trans):
    """Σ over every frame pair (t, t+1) of every sequence of P(j at t, k at t+1).

    log_msg holds forward messages, post the posterior of entering each state
    (zero past each end). A pair posterior is post[t + 1, k] times the share
    of the message into k from j: one GEMM per block of sequences.
    """
    K = log_msg.shape[-1]
    M = np.exp(log_trans - float(np.max(log_trans)))
    shares, redone = np.zeros((K, K)), np.zeros((K, K))
    for lo in range(0, log_msg.shape[0], BLOCK):
        x = log_msg[lo : lo + BLOCK, :-1].reshape(-1, K)
        nxt = post[lo : lo + BLOCK, 1:].reshape(-1, K)
        P = x - x.max(axis=1, keepdims=True)
        into = np.exp(P, out=P) @ M
        ok = into > TINY
        redo = ~np.all(ok | (nxt == 0.0), axis=1)
        shares += P.T @ np.divide(nxt, into, out=np.zeros_like(into), where=ok & ~redo[:, None])
        if redo.any():
            scores = x[redo, :, None] + log_trans
            share = np.exp(scores - logsumexp(scores, axis=1)[:, None, :])
            redone += (share * nxt[redo, None, :]).sum(axis=0)
    return M * shares + redone


def viterbi(log_unary, log_trans, lengths, log_init=None):
    """Best state path of each of N padded chains: (list of (T_n,) paths, (N,) scores)."""
    N, T, K = log_unary.shape
    check_lengths(lengths)
    last = np.asarray(lengths) - 1
    done = int(last.min())  # from here on some sequences have ended
    delta = log_unary[:, 0] if log_init is None else log_init + log_unary[:, 0]
    into = np.ascontiguousarray(log_trans.T)  # into[k, j] = log_trans[j, k]
    # back[t, n, k]: the best state before k at frame t, time-major; scores[n, k, j]
    # the score of entering k from j, and rows[n, k] the flat offset of its row
    back, scores = np.empty((T, N, K), dtype=np.int64), np.empty((N, K, K))
    rows, at = np.arange(0, N * K * K, K).reshape(N, K), np.empty((N, K), dtype=np.int64)
    for t in range(1, T):  # a finished sequence keeps its last delta
        np.add(delta[:, None, :], into, out=scores)  # argmax runs along memory
        np.add(scores.argmax(axis=2, out=back[t]), rows, out=at)
        new = scores.take(at)  # the max, gathered
        new += log_unary[:, t]
        delta = new if t <= done else np.where((t <= last)[:, None], new, delta)
    state, best = delta.argmax(axis=1), delta.max(axis=1)
    paths = []
    for n, k in enumerate(state.tolist()):  # one scalar read a frame
        path, walk = np.empty(last[n] + 1, dtype=np.int64), back[:, n]
        for t in range(last[n], 0, -1):
            path[t] = k
            k = walk.item(t, k)
        path[0] = k
        paths.append(path)
    return paths, best
