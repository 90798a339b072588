"""Explicit-duration hidden semi-Markov model.

States carry truncated-Poisson duration distributions over 1..d_max and
self-transitions are removed. Inference sums (or maximizes) over segment
decompositions: a path of segments [s, s+d-1] scores
initial/transition + duration + emissions. The final segment must end
exactly at the last frame (no right-censoring), which is also what the
brute-force enumeration oracle computes. The posterior pass runs its
forward and backward recursions in one time loop: the backward one reads
only the emissions (Yu 2010, "Hidden semi-Markov models"). The loop runs in
probability space with rescaled messages (Yu and Kobayashi 2006, "Practical
implementation of an efficient forward-backward algorithm for an
explicit-duration hidden Markov model"), falling back to an exact logsumexp
loop in log space where that cannot vouch for its result; Viterbi runs in
log space. EM reads the transition counts off the log forward sums and
refits each duration rate from the state's expected segments and frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import DegenerateDatasetError, ModelInvalidError, ShapeError
from . import chain
from .chain import LOG_EPS, logsumexp
from .hmm import em_fit, emission_log_probs, hold_gaussian_states, init_gaussian_hmm, transition_m_step

# exp of anything below about -708 is subnormal or 0, and numpy computes it 15-170x
# slower than in range; e^-700 < 1e-304 cannot move a sum that holds a term of 1
EXP_FLOOR = -700.0
# the probability-space recursions (scaled_messages): weights below e^FLUSH are
# 0, as exp below about -708 is slow and products with them go subnormal; a
# row's mass is kept in [LOW, HIGH]; a window sum below GUARD times the mass of
# its window falls back to the log-space loop
FLUSH = -400.0
LOW, HIGH = 1e-60, 1e60
GUARD = np.exp(-260.0)
EXP_FLUSH = float(np.exp(FLUSH))
WEIGHT_BLOCK = 1 << 16  # floats of segment weights built at once
BIG = 1e300  # prefix-sum padding: a segment reaching it weighs exp(-BIG) = 0


@dataclass
class Hsmm:
    pi: np.ndarray  # (K,)
    A: np.ndarray  # (K, K), zero diagonal, rows sum to 1 (K > 1)
    means: np.ndarray  # (K, d)
    covs: np.ndarray  # (K, d, d)
    lambdas: np.ndarray  # (K,) truncated-Poisson rates
    d_max: int
    factors: tuple = field(init=False, repr=False, compare=False)  # gaussian_factors(covs)

    def __post_init__(self):
        self.lambdas = np.asarray(self.lambdas, dtype=np.float64)
        hold_gaussian_states(self, "hsmm", lambdas=self.lambdas)
        if self.lambdas.shape != self.pi.shape:
            raise ShapeError("hsmm parameter shapes disagree")
        if np.max(np.abs(np.diag(self.A))) > 0:
            raise ModelInvalidError("hsmm transitions must have a zero diagonal")
        if self.n_states > 1 and np.max(np.abs(self.A.sum(axis=1) - 1.0)) > 1e-10:
            raise ModelInvalidError("transition rows must sum to 1 within 1e-10")
        if self.d_max < 1:
            raise ValueError("d_max must be >= 1")

    @property
    def n_states(self) -> int:
        return self.pi.shape[0]


def duration_log_pmf(lambdas, d_max: int) -> np.ndarray:
    """(K, d_max) log pmf of Poisson(lambda) restricted to 1..d_max."""
    lam = np.maximum(np.asarray(lambdas, dtype=np.float64), 1e-9)
    d = np.arange(1, d_max + 1)
    log_fact = np.cumsum(np.log(d))
    logits = d[None, :] * np.log(lam)[:, None] - log_fact[None, :]
    return logits - logsumexp(logits, axis=1)[:, None]


def fit_truncated_poisson(target_mean, d_max: int):
    """Rate(s) whose truncated-Poisson mean matches target_mean (one shared bisection)."""
    target = np.atleast_1d(np.asarray(target_mean, dtype=np.float64))
    lo, hi = np.full(target.shape, np.log(1e-3)), np.full(target.shape, np.log(50.0 * d_max))
    durations = np.arange(1, d_max + 1)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = np.exp(duration_log_pmf(np.exp(mid), d_max)) @ durations < target
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    lam = np.where(target >= d_max - 1e-9, 10.0 * d_max, np.exp(0.5 * (lo + hi)))
    lam = np.where((d_max == 1) | (target <= 1.0 + 1e-9), 1e-3, lam)
    return lam if np.ndim(target_mean) else float(lam[0])


def _segment_scores(hsmm: Hsmm, X, lengths):
    """Padded emission prefix sums (N, T+1, K), log duration pmf, log pi, log A."""
    logb = chain.pad(emission_log_probs(hsmm, X), lengths)
    cumb = np.zeros((logb.shape[0], logb.shape[1] + 1, logb.shape[2]))
    np.cumsum(logb, axis=1, out=cumb[:, 1:])
    log_dur = duration_log_pmf(hsmm.lambdas, hsmm.d_max)
    return cumb, log_dur, chain.log_clip(hsmm.pi), chain.log_clip(hsmm.A)


def hsmm_loglik(hsmm: Hsmm, X) -> float:
    """Total log-likelihood of a sequence (sum over all segmentations)."""
    return hsmm_posteriors(hsmm, X)[0]


def hsmm_viterbi_batch(hsmm: Hsmm, sequences) -> tuple[list, np.ndarray]:
    """Most probable segmentation of each sequence: (per-frame state paths, log scores)."""
    X, lengths = chain.stack(sequences)
    logb = chain.pad(emission_log_probs(hsmm, X), lengths).transpose(1, 0, 2)  # (T, N, K)
    T, N, K = logb.shape
    D = min(hsmm.d_max, T)
    log_dur = duration_log_pmf(hsmm.lambdas, hsmm.d_max)[:, :D].T[:, None, :]  # (D, 1, K): durations 1..D
    # time-major and reversed in time: rin[T - s] holds best_in[s], the best score
    # of the path before a segment starting at s, and rcum[T - s] the emission sum
    # over the frames before s; before frame 0 they read -inf and 0. Step t's
    # segments, durations 1..D, start at the frames of the window rin[T - t : T - t + D].
    rin, rcum = np.empty((T + D, N, K)), np.zeros((T + D, N, K))
    rin[T], rin[T + 1 :] = chain.log_clip(hsmm.pi), -np.inf
    np.cumsum(logb, axis=0, out=rcum[T - 1 :: -1])
    del logb  # freed before the tables below are built
    into = np.ascontiguousarray(chain.log_clip(hsmm.A).T)  # into[k, j] = log_A[j, k]
    final = np.empty((N, K))  # best score of a segment of k ending each sequence
    # back-pointers, time-major: the duration less 1 of the best segment of k
    # ending at t, and the state before the best segment of k starting at s
    best_dur, prev_state = np.empty((T, N, K), dtype=np.int32), np.empty((T + 1, N, K), dtype=np.int32)
    # vals[i, n, k]: the score of the segment of k of duration i + 1 ending at t, and
    # vs its maximum; scores[n, k, j] that of entering k from j. cells[n, k] is the
    # flat offset of (n, k) in an (N, K) table, rows[n, k] that of row (n, k) in scores.
    vals, seg, scores = np.empty((D, N, K)), np.empty((D, N, K)), np.empty((N, K, K))
    vs, pick, cells = np.empty((N, K)), np.empty((N, K), dtype=np.int64), np.arange(N * K).reshape(N, K)
    rows = K * cells
    done = int(lengths.min()) - 1  # from here on some sequences have ended
    for t in range(T):
        r = T - t
        np.add(rin[r : r + D], log_dur, out=vals)
        vals += np.subtract(rcum[r - 1], rcum[r : r + D], out=seg)
        best_dur[t] = vals.argmax(axis=0, out=pick)  # a tie resolves to the shortest segment
        pick *= N * K
        pick += cells
        vals.take(pick, out=vs)
        if t >= done:
            final[t == lengths - 1] = vs[t == lengths - 1]
        np.add(vs[:, None, :], into, out=scores)  # argmax runs along memory
        prev_state[t + 1] = scores.argmax(axis=2, out=pick)
        pick += rows
        scores.take(pick, out=rin[r - 1])

    paths = []
    for n, length in enumerate(lengths.tolist()):  # one scalar read a segment
        path, durs, prevs = np.empty(length, dtype=np.int64), best_dur[:, n], prev_state[:, n]
        k, t = int(np.argmax(final[n])), length - 1
        while t >= 0:
            s = t - durs.item(t, k)
            path[s : t + 1] = k
            k = prevs.item(s, k)  # unused once s == 0
            t = s - 1
        paths.append(path)
    return paths, final.max(axis=1)


def hsmm_viterbi(hsmm: Hsmm, X) -> tuple[np.ndarray, float]:
    """Most probable segmentation; returns (per-frame state path, log score)."""
    paths, best = hsmm_viterbi_batch(hsmm, [X])
    return paths[0], float(best[0])


def _posteriors(hsmm: Hsmm, X, lengths, stats: bool = True):
    """Batched E-step over the sequences stacked in X: logliks (N,) and gamma
    (N, T, K), then with stats, summed over them, xi (K, K) and each state's
    expected segments (K,) and frames (K,), as every frame lies in one segment."""
    log_dur, log_A = duration_log_pmf(hsmm.lambdas, hsmm.d_max), chain.log_clip(hsmm.A)
    found = scaled_messages(hsmm, X, lengths, log_dur, stats)
    if found is None:
        cumb, _, log_pi, _ = _segment_scores(hsmm, X, lengths)
        found = log_messages(cumb, log_dur, log_pi, log_A, lengths)
    loglik, starts, ends, ls = found
    if stats:
        xi, segments = chain.pair_sum(ls, starts, log_A), starts.sum(axis=(0, 1))
    # P(k at t) = P(a segment of k started by t) - P(one ended before t)
    gamma = np.cumsum(starts, axis=1, out=starts)
    gamma[:, 1:] -= np.cumsum(ends, axis=1, out=ends)[:, :-1]
    np.maximum(gamma, 0.0, out=gamma)
    gamma[~chain.valid(lengths, gamma.shape[1])] = 0.0
    return (loglik, gamma, xi, segments, gamma.sum(axis=(0, 1))) if stats else (loglik, gamma)


def scaled_messages(hsmm: Hsmm, X, lengths, log_dur, stats: bool):
    """The forward and backward recursions in probability space (Yu and Kobayashi
    2006), or None where the result cannot be vouched for.

    Segment weights exp(emission sum + log pmf) are taken relative to each
    frame's largest emission and flushed to 0 below e^FLUSH, so products stay
    normal; they are built ahead of the loop, WEIGHT_BLOCK floats at a time. A
    step's two window sums (segments ending at t, and starting at T - 1 - t) are
    one product of the stored messages with the weights. A row is rescaled only
    when its mass leaves [LOW, HIGH], and then with every message later steps
    read, so each window shares one scale. None when a step's sum is not above
    GUARD times the mass of its window, where a flushed weight may have mattered.

    Returns (loglik, starts, ends, ls) as log_messages does, ls only with stats
    (else None); starts and ends are views of time-major tables."""
    u = chain.pad(emission_log_probs(hsmm, X), lengths).transpose(1, 0, 2)  # (T, N, K)
    T, N, K = u.shape
    D, last, n = min(hsmm.d_max, T), lengths - 1, np.arange(len(lengths))
    ok = chain.valid(lengths, T).T  # (T, N)
    live = np.concatenate([ok, ok[::-1]], axis=1)  # (T, 2N): the step is inside its sequence
    m = np.maximum.reduce(u, axis=2)
    total = m.sum(axis=0)  # frame maxima summed over each sequence (padding reads 0)
    # shifted prefix sums cs[j] = sum of u - m over frames < j, padded by D - 1
    # frames at each end; past a sequence's end they read -BIG, so a backward
    # segment crossing the end weighs 0
    pad = np.empty((T + 2 * D - 1, N, K))
    pad[: D - 1], pad[T + D :] = BIG, -BIG
    cs = pad[D - 1 : T + D]
    cs[0] = 0.0
    np.cumsum(np.subtract(u, m[:, :, None], out=cs[1:]), axis=0, out=cs[1:])
    del u
    cs[np.arange(T + 1)[:, None] > lengths] = -BIG
    fwin = sliding_window_view(pad[: T + D], D, axis=0).transpose(0, 3, 1, 2)  # [t, i]: cs[t - D + 1 + i]
    bwin = sliding_window_view(pad[D - 1 :], D, axis=0).transpose(0, 3, 1, 2)[:, ::-1]  # [j, i]: cs[j + D - 1 - i]
    rev_dur = log_dur[:, D - 1 :: -1].T[:, None, :]  # (D, 1, K), row i is duration D - i
    rows = max(1, WEIGHT_BLOCK // (D * 2 * N * K))
    weights = np.empty((min(rows, T), D, 2 * N, K))

    def weigh(t0, t1):
        """Weights of steps t0 .. t1 - 1: w[t - t0, i] pairs with the message t - D + 1 + i."""
        w = weights[: t1 - t0]
        np.subtract(cs[t0 + 1 : t1 + 1, None], fwin[t0:t1], out=w[:, :, :N])
        np.subtract(bwin[T - t1 + 1 : T - t0 + 1][::-1], cs[T - t1 : T - t0][::-1, None], out=w[:, :, N:])
        w += rev_dur
        # exp(max(w, FLUSH - 1)) - e^FLUSH, clipped at 0: 0 for a log weight
        # below FLUSH and off by at most e^FLUSH above it, with numpy's fast exp
        np.maximum(w, FLUSH - 1.0, out=w)
        np.exp(w, out=w)
        w -= EXP_FLUSH
        return np.maximum(w, 0.0, out=w)

    # msg[t] holds the forward message into a segment starting at t (rows :N)
    # and the backward one out of a segment ending at T - 1 - t (rows N:);
    # sums[t] the window sums of step t, whose mass is mass[t]
    AA = np.stack([hsmm.A, hsmm.A.T])  # forward and backward transitions, one batched product a step
    msg, sums = np.empty((T, 2 * N, K)), np.empty((T, 2 * N, K))
    msg[0, :N], msg[0, N:] = hsmm.pi, 1.0
    mass, events = np.empty((T, 2 * N)), np.zeros((T, 2 * N))  # events: the log of each rescale
    restarts = {T - 1 - int(e): N + np.flatnonzero(last == e) for e in np.unique(last[last < T - 1])}
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for t in range(T):
            if t % rows == 0:
                w = weigh(t, min(T, t + rows))
            lo = max(0, t - D + 1)
            wt = w[t % rows, D - (t + 1 - lo) :]
            np.add.reduce(np.multiply(msg[lo : t + 1], wt, out=wt), axis=0, out=sums[t])
            c = np.add.reduce(sums[t], axis=1, out=mass[t])
            masses = c.tolist()  # finite and >= 0: Python's min and max read them as numpy's would
            if min(masses) < LOW or max(masses) > HIGH:
                r = np.flatnonzero(((c < LOW) | (c > HIGH)) & live[t])
                if len(r):
                    if not np.all(c[r] > GUARD * np.add.reduce(msg[lo : t + 1, r], axis=(0, 2))):
                        return None
                    sums[t, r] /= c[r, None]
                    msg[max(0, t - D + 2) : t + 1, r] /= c[r, None]  # the messages later steps read
                    events[t, r] = np.log(c[r])
            if t + 1 < T:
                np.matmul(sums[t].reshape(2, N, K), AA, out=msg[t + 1].reshape(2, N, K))
                if t + 1 in restarts:  # a backward message starts at 1 on its sequence's last frame
                    msg[t + 1, restarts[t + 1]] = 1.0
        del weights, w, wt  # freed before the tables below are built
        # scale[t]: the log scale of the messages during step t, and of sums[t - 1];
        # message i was last divided at step i + D - 2, so it holds held[i]
        scale = np.zeros((T + 1, 2 * N))
        np.cumsum(events, axis=0, out=scale[1:])
        held = scale[np.minimum(np.arange(T) + D - 1, T)]
        peak = np.full((T + D - 1, 2 * N), -np.inf)
        np.log(np.add.reduce(msg, axis=2), out=peak[D - 1 :])
        peak[D - 1 :] += held
        peak = sliding_window_view(peak, D, axis=0).max(axis=2)  # the largest message of each window
        if not np.all(np.log(mass) + scale[:T] > np.log(GUARD * D) + peak, where=live):
            return None
        loglik = np.log(np.add.reduce(sums[last, n], axis=1)) + total + scale[last + 1, n]
        offset = total - loglik
        # the posteriors of the segments starting at s (over the backward sums)
        # and ending at e (over the forward sums, once ls has been read off them)
        starts, ends = sums[::-1, N:], sums[:, :N]  # by frame
        starts *= msg[:, :N]
        starts *= np.exp(offset + held[:, :N] + scale[T:0:-1, N:])[:, :, None]
        if stats:  # the log forward sums by end
            ls = np.empty((N, T, K))
            np.log(ends, out=ls.transpose(1, 0, 2))
            ls += (np.cumsum(m, axis=0) + scale[1:, :N]).T[:, :, None]
            np.maximum(ls, LOG_EPS, out=ls)
        ends *= msg[::-1, N:]
        ends *= np.exp(offset + scale[1:, :N] + held[::-1, N:])[:, :, None]
        if restarts:
            starts[~ok] = 0.0
            ends[~ok] = 0.0
    return loglik, starts.transpose(1, 0, 2), ends.transpose(1, 0, 2), ls if stats else None


def log_messages(cumb, log_dur, log_pi, log_A, lengths):
    """The forward and backward recursions with messages in log space, the
    fallback of scaled_messages: (loglik (N,), then the posteriors of the
    segments starting and ending at each frame (N, T, K), then ls, the log sums
    of the forward messages by end (N, T, K))."""
    N, T, K = cumb.shape[0], cumb.shape[1] - 1, cumb.shape[2]
    D, last = min(log_dur.shape[1], T), lengths - 1
    # A segment [s, e] scores head[:, s] + log_dur + tail[:, e]: the path up to s
    # less cumb[:, s], and the rest after e plus cumb[:, e + 1]. One time loop runs
    # both directions: step t sums the segments ending at t into ls[:, t] and those
    # starting at s = T - 1 - t into after[:, s]. msg[0] holds head and msg[1] tail
    # reversed in time, so both sums take the window msg[:, :, t - w + 1 : t + 1]
    # with durations w, ..., 1, where w = min(D, t + 1).
    rev_dur = log_dur[:, D - 1 :: -1].T  # (D, K), row i is duration D - i
    msg = np.empty((2, N, T, K))
    head, rtail = msg  # rtail[:, t] is tail[:, T - 1 - t]
    head[:, 0] = log_pi
    ls, after = np.empty((N, T, K)), np.empty((N, T, K))  # log sums by end, by start
    edge = np.where(np.arange(T)[:, None] == last, 0.0, LOG_EPS)[:, :, None]  # (T, N, 1)
    work = np.empty((2, N, D, K))
    trans = np.stack([log_A, log_A.T])[:, None]  # (2, 1, K, K): forward, backward
    rest = np.zeros((N, K))  # the backward message into tail[:, s], less cumb[:, s + 1]
    for t in range(T):
        s, lo = T - 1 - t, max(0, t - D + 1)
        np.add(cumb[:, s + 1], np.where((s < last)[:, None], rest, edge[s]), out=rtail[:, t])
        win = np.add(msg[:, :, lo : t + 1], rev_dur[D - (t + 1 - lo) :], out=work[:, :, : t + 1 - lo])
        win[0] += cumb[:, t + 1, None]
        peak = win.max(axis=2)
        win -= peak[:, :, None]
        np.maximum(win, EXP_FLOOR, out=win)
        lse = np.log(np.exp(win, out=win).sum(axis=2))
        lse += peak
        ls[:, t], after[:, s] = lse
        if t + 1 < T:
            lse[1] -= cumb[:, s]
            head[:, t + 1], rest = logsumexp(lse[..., None] + trans, axis=2)
            head[:, t + 1] -= cumb[:, t + 1]
    loglik = logsumexp(ls[np.arange(N), last], axis=1)

    # posteriors of the segments starting at s (into after) and ending at e (into cumb)
    head -= loglik[:, None, None]
    starts = np.exp(np.add(after, head, out=after), out=after)
    ends = cumb[:, 1:]
    np.subtract(ls, ends, out=ends)
    ends += rtail[:, ::-1]
    ends -= loglik[:, None, None]
    np.exp(ends, out=ends)
    return loglik, starts, ends, ls


def hsmm_posteriors(hsmm: Hsmm, X):
    """Posteriors of one sequence: (loglik, gamma (T, K))."""
    loglik, gamma = _posteriors(hsmm, *chain.stack([X]), stats=False)
    return float(loglik[0]), gamma[0]


def _refit(hsmm: Hsmm, pi, means, covs, xi, segments, frames) -> Hsmm:
    K, A = hsmm.n_states, np.zeros((1, 1))
    if K > 1:
        np.fill_diagonal(xi, 0.0)
        A = transition_m_step(xi, (1.0 - np.eye(K)) / (K - 1), 1e-12)
        A /= A.sum(axis=1, keepdims=True)  # a second pass, kept: without it A moves by ~1e-13
    mean_dur = frames / np.maximum(segments, 1e-300)  # all a truncated Poisson's rate reads
    lambdas = np.where(segments > 1e-12, fit_truncated_poisson(mean_dur, hsmm.d_max), hsmm.lambdas)
    return Hsmm(pi=pi, A=A, means=means, covs=covs, lambdas=lambdas, d_max=hsmm.d_max)


def hsmm_em_fit(sequences, K: int, iterations: int, seed: int, d_max: int) -> tuple[Hsmm, list[float]]:
    """EM for the explicit-duration model; returns (model, trace) as em_fit does."""
    def start(X, lengths):
        if K == 1 and lengths.max() > d_max:  # one state has no transition out of a segment
            raise DegenerateDatasetError(f"a one-state hsmm cannot explain a sequence of "
                                         f"{lengths.max()} frames with segments of at most d_max = {d_max}")
        base = init_gaussian_hmm(X, K, seed)
        lam0 = float(np.clip(lengths.mean() / (2.0 * K), 1.5, max(d_max / 2.0, 1.5)))
        return Hsmm(pi=base.pi, A=(1.0 - np.eye(K)) / max(K - 1, 1), means=base.means,
                    covs=base.covs, lambdas=np.full(K, lam0), d_max=d_max)

    return em_fit(sequences, iterations, start, _posteriors, _refit)
