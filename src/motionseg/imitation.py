"""Behavior-cloned pose decoding from frozen embeddings.

The decoder regresses a 16-dim two-arm target per frame: position (3),
quaternion (4) and jaw angle (1) for the left then right arm. The loss
blends a squared-error term over positions and jaws (normalized by the
full 16-dim width) with a quaternion cosine term 1 - |<q, q_hat>|, which
makes it exactly invariant to quaternion sign flips.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .data import POSE_DIM
from .embedding import Encoder, encode_array
from .errors import ShapeError
from .numerics import MlpParams, init_mlp, mlp_backward, mlp_forward

QUAT_SLICES = (slice(3, 7), slice(11, 15))
MSE_DIMS = np.asarray([0, 1, 2, 7, 8, 9, 10, 15])
SCOPES = ("pooled", "per_demonstrator")
DECODER_HIDDEN = (64, 32)  # hidden widths of the pose decoder, shared by the CLI and pose_table
DECODER_EPOCHS, DECODER_W_POS = 200, 0.5  # training epochs; weight of the position term in the loss
DECODER_LR, DECODER_BATCH = 1e-3, 64  # Adam step size and minibatch rows of decoder training


@dataclass
class EndEffectorPose:
    left_position: np.ndarray
    left_quaternion: np.ndarray
    left_jaw: float
    right_position: np.ndarray
    right_quaternion: np.ndarray
    right_jaw: float

    def __post_init__(self):
        for name in ("left_position", "right_position", "left_quaternion", "right_quaternion"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        for q in (self.left_quaternion, self.right_quaternion):
            if abs(np.linalg.norm(q) - 1.0) > 1e-9:
                raise ValueError("pose quaternions must be unit norm within 1e-9")

    def to_vector(self) -> np.ndarray:
        return np.concatenate(
            [
                self.left_position, self.left_quaternion, [self.left_jaw],
                self.right_position, self.right_quaternion, [self.right_jaw],
            ]
        )

    @staticmethod
    def from_vector(vec) -> "EndEffectorPose":
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (POSE_DIM,):
            raise ShapeError(f"pose vector must have {POSE_DIM} entries")
        return EndEffectorPose(
            left_position=vec[0:3], left_quaternion=vec[3:7], left_jaw=float(vec[7]),
            right_position=vec[8:11], right_quaternion=vec[11:15], right_jaw=float(vec[15]),
        )


def _quat_rows(poses):
    """(2B, 4) view of both arms' quaternions in (B, 16) poses; row 2b is sample b's left arm."""
    return poses.reshape(-1, 2, 8)[:, :, 3:7].reshape(-1, 4)


def pose_loss_batch(pred, truth, w_pos: float):
    """Mean pose loss over (B, 16) raw predictions; returns (loss, grad_pred).

    Predicted quaternions are renormalized before the cosine term (a zero
    quaternion falls back to the fixed basis vector, gradient zero there).
    Both arms go through one normalisation and its backward pass.
    """
    return _pose_loss(pred, truth, w_pos)


def _pose_loss(pred, truth, w_pos: float, value: bool = True):
    """pose_loss_batch, and with value=False grad_pred alone: the loss terms are skipped."""
    pred = np.atleast_2d(np.asarray(pred, dtype=np.float64))
    truth = np.atleast_2d(np.asarray(truth, dtype=np.float64))
    if pred.shape != truth.shape or pred.shape[1] != POSE_DIM:
        raise ShapeError("pose arrays must both be (B, 16)")
    B = pred.shape[0]
    grad = pred - truth  # the residual, scaled in place into the squared-error gradient
    if value:
        mse = float(np.add.reduce(grad[:, MSE_DIMS] ** 2, axis=None)) / (POSE_DIM * B)
    grad *= w_pos * 2.0
    grad /= POSE_DIM * B

    # numerics.l2_normalize_rows and its backward pass, sharing one norm
    raw, q = _quat_rows(pred), _quat_rows(truth)
    norms = np.sqrt(np.add.reduce(raw * raw, axis=1))
    dead = norms <= numerics.NORM_FLOOR
    safe = np.where(dead, 1.0, norms)[:, None]
    qhat = raw / safe
    qhat[dead] = (1.0, 0.0, 0.0, 0.0)
    dots = np.add.reduce(qhat * q, axis=1)
    if value:
        per_arm = (1.0 - np.abs(dots)).reshape(B, 2)
        orient = sum(float(np.add.reduce(per_arm[:, k])) / B / 2.0 for k in (0, 1))  # as np.mean
    g_raw = np.sign(dots)[:, None] * q / (-2.0 * B)  # the cosine term's gradient at qhat
    g_raw -= qhat * np.add.reduce(qhat * g_raw, axis=1, keepdims=True)
    g_raw /= safe
    g_raw[dead] = 0.0
    g_quat = np.multiply(g_raw, 1.0 - w_pos, out=_quat_rows(grad))
    g_quat += 0.0  # as 0.0 + x: w_pos = 1 gives +0.0, never -0.0
    return (w_pos * mse + (1.0 - w_pos) * orient, grad) if value else grad


def pose_loss(pred: EndEffectorPose, truth: EndEffectorPose, w_pos: float):
    """Loss between two poses; returns (loss, gradient w.r.t. the 16-dim pred vector)."""
    loss, grad = pose_loss_batch(pred.to_vector()[None, :], truth.to_vector()[None, :], w_pos)
    return loss, grad[0]


@dataclass
class PoseDecoder:
    mlp: MlpParams
    w_pos: float
    scope: str = "pooled"

    def __post_init__(self):
        if self.mlp.out_dim != POSE_DIM:
            raise ShapeError(f"pose decoder must emit {POSE_DIM} values")
        if not (0.0 <= self.w_pos <= 1.0):
            raise ValueError("w_pos must lie in [0, 1]")
        if self.scope not in SCOPES:
            raise ValueError(f"unknown scope {self.scope!r}")


def new_pose_decoder(
    embed_dim: int, hidden=DECODER_HIDDEN, w_pos=DECODER_W_POS, scope="pooled", seed=0
) -> PoseDecoder:
    mlp = init_mlp([embed_dim, *hidden, POSE_DIM], rng=np.random.default_rng(seed))
    return PoseDecoder(mlp=mlp, w_pos=w_pos, scope=scope)


def decode_pose(decoder: PoseDecoder, embedding_rows) -> np.ndarray:
    """(T, 16) raw decoder outputs with quaternions renormalized."""
    out, _ = mlp_forward(decoder.mlp, np.atleast_2d(embedding_rows))
    quats = _quat_rows(out)
    quats[...] = numerics.l2_normalize_rows(quats)
    return out


def encode_once(encoder):
    """A frozen Encoder as a features -> embeddings function that encodes each distinct
    array (equal values, not only the same object) once and hands every caller of it
    the same result. train_pose_decoder and eval_pose take either; a function passes
    through as is."""
    if callable(encoder):
        return encoder
    memo = {}  # hash of the bytes -> (features, embeddings); a hash clash re-encodes
    def embed(features):
        key = hash(features.tobytes())
        if key not in memo or not np.array_equal(memo[key][0], features):
            memo[key] = (features, encode_array(encoder, features))
        return memo[key][1]
    return embed


def train_pose_decoder(
    encoder,
    demos,
    scope: str = "pooled",
    epochs: int = DECODER_EPOCHS,
    seed: int = 0,
    hidden=DECODER_HIDDEN,
    w_pos: float = DECODER_W_POS,
):
    """Train decoder(s) on frozen embeddings.

    Returns a PoseDecoder for scope "pooled" or {demonstrator_id: PoseDecoder}
    for scope "per_demonstrator". The encoder is only read, never written.
    """
    demos = list(demos)
    if any(d.poses is None for d in demos):
        raise ValueError("every training demo needs pose ground truth")
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}")
    rng, embed = np.random.default_rng(seed), encode_once(encoder)
    if scope == "pooled":
        return _train_one(embed, demos, epochs, rng, hidden, w_pos, scope)
    decoders = {}
    groups: dict[str, list] = {}
    for demo in demos:
        groups.setdefault(demo.demonstrator_id, []).append(demo)
    for demonstrator in sorted(groups):
        decoders[demonstrator] = _train_one(
            embed, groups[demonstrator], epochs, rng, hidden, w_pos, scope
        )
    return decoders


def _train_one(embed, demos, epochs, rng, hidden, w_pos, scope):
    X = np.vstack([embed(d.features) for d in demos])
    Y = np.vstack([d.poses for d in demos])
    decoder = new_pose_decoder(
        X.shape[1], hidden=hidden, w_pos=w_pos, scope=scope, seed=int(rng.integers(2**32))
    )
    params = [decoder.mlp.flat]
    opt = numerics.make_optimizer(params, lr=DECODER_LR)
    n = X.shape[0]
    for _ in range(int(epochs)):
        order = rng.permutation(n)
        for s in range(0, n, DECODER_BATCH):
            idx = order[s : s + DECODER_BATCH]
            out, cache = mlp_forward(decoder.mlp, X[idx])
            grad_out = _pose_loss(out, Y[idx], w_pos, value=False)
            grad, _ = mlp_backward(decoder.mlp, cache, grad_out)
            numerics.optimizer_step(params, [grad], opt)
    return decoder


def eval_pose(decoders, encoder, test_demos, noise_sigma: float = 0.0, seed: int = 0):
    """Position RMSE (cm, pooled over arms and axes) and median per-frame quaternion loss.

    noise_sigma > 0 adds i.i.d. Gaussian noise to the frame features before
    encoding; zero noise evaluates the features bit-exactly as stored.
    decoders is a single pooled PoseDecoder or {demonstrator_id: PoseDecoder}.
    """
    test_demos = list(test_demos)
    if not test_demos:
        raise ValueError("empty test set")
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be >= 0")
    rng, embed = np.random.default_rng(seed), encode_once(encoder)
    sq_sum = 0.0
    n_pos = 0
    quat_losses = []
    for demo in test_demos:
        if demo.poses is None:
            raise ValueError(f"demo {demo.demo_id} lacks poses")
        feats = demo.features
        if noise_sigma > 0:
            feats = feats + rng.normal(0.0, noise_sigma, size=feats.shape)
        decoder = decoders[demo.demonstrator_id] if isinstance(decoders, dict) else decoders
        pred = decode_pose(decoder, embed(feats))
        for pos_sl in (slice(0, 3), slice(8, 11)):
            resid = pred[:, pos_sl] - demo.poses[:, pos_sl]
            sq_sum += float(np.sum(resid**2))
            n_pos += resid.size
        frame_losses = np.zeros(demo.num_frames)
        for sl in QUAT_SLICES:
            dots = np.abs(np.sum(pred[:, sl] * demo.poses[:, sl], axis=1))
            frame_losses += (1.0 - dots) / 2.0
        quat_losses.append(frame_losses)
    return {
        "rmse_position_cm": float(np.sqrt(sq_sum / n_pos)),
        "median_cosine_quat_loss": float(np.median(np.concatenate(quat_losses))),
    }


def trajectory_rows(decoders, encoder: Encoder, demos) -> list[tuple]:
    """Plot-ready rows (demo_id, frame, 16 predicted pose values)."""
    rows = []
    for demo in demos:
        E = encode_array(encoder, demo.features)
        decoder = decoders[demo.demonstrator_id] if isinstance(decoders, dict) else decoders
        pred = decode_pose(decoder, E)
        for t in range(demo.num_frames):
            rows.append((demo.demo_id, t, *pred[t].tolist()))
    return rows
