"""Dense layer math with hand-written gradients, Adam, and a gradient checker.

Everything runs in float64. Inputs may be single vectors (n,) or batches
(B, n); parameter gradients are summed over the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ModelInvalidError, NumericError, ShapeError

ACTIVATIONS = ("relu", "tanh", "identity")
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults
NORM_FLOOR = 1e-12  # rows with a smaller L2 norm are treated as zero when normalised
FD_STEP = 1e-5  # central-difference step of finite_diff_check


def check_finite(model: str, **arrays) -> None:
    """Raise ModelInvalidError naming the first array that holds a NaN or an inf."""
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise ModelInvalidError(f"{model} {name} must be finite")


def sq_distances(A, B, b_sq_norms=None) -> np.ndarray:
    """(M, N) squared Euclidean distances ||a||^2 - 2 a.b + ||b||^2 between the
    rows of A (M, d) and B (N, d), summed into one buffer. b_sq_norms, if given,
    is np.sum(B**2, axis=1). Negating 2A is exact, so the result is bit for bit
    np.sum(A**2, axis=1, keepdims=True) - 2.0 * A @ B.T + np.sum(B**2, axis=1)."""
    out = (-2.0 * A) @ B.T
    out += np.sum(A**2, axis=1, keepdims=True)
    out += np.sum(B**2, axis=1) if b_sq_norms is None else b_sq_norms
    return out


@dataclass
class Layer:
    """One affine layer: y = act(x @ w.T + b), w is (out, in)."""

    w: np.ndarray
    b: np.ndarray
    activation: str = "identity"

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.w.ndim != 2 or self.b.ndim != 1 or self.b.shape[0] != self.w.shape[0]:
            raise ShapeError(
                f"layer wants w (out, in) and b (out,), got {self.w.shape} / {self.b.shape}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        check_finite("layer", w=self.w, b=self.b)


@dataclass
class MlpParams:
    """A stack of Layers with matching inner dimensions.

    All parameters live in one contiguous float64 vector, ``flat``, laid out
    as w0, b0, w1, b1, ... (each w row-major); every layer's ``w`` and ``b``
    are rebound to views of it, so an optimizer step on ``flat`` updates the
    layers in place. The MLP owns its layers: building a second MlpParams
    from the same Layer objects rebinds them to the second vector.
    """

    layers: list[Layer]
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.w.shape[0] != nxt.w.shape[1]:
                raise ShapeError(
                    f"layer widths disagree: {prev.w.shape[0]} feeds {nxt.w.shape[1]}"
                )
        self.flat = np.concatenate([a.ravel() for a in self.param_arrays()])
        for layer, (w, b) in zip(self.layers, self.views(self.flat)):
            layer.w, layer.b = w, b

    @property
    def in_dim(self) -> int:
        return self.layers[0].w.shape[1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].w.shape[0]

    def views(self, vec) -> list[tuple]:
        """(w, b) views of a vector laid out like ``flat``, one pair per layer."""
        out, offset = [], 0
        for layer in self.layers:
            w_end = offset + layer.w.size
            out.append((vec[offset:w_end].reshape(layer.w.shape), vec[w_end : w_end + layer.b.size]))
            offset = w_end + layer.b.size
        return out

    def param_arrays(self) -> list[np.ndarray]:
        """Every layer's w and b in order (views of ``flat``, update in place)."""
        return [a for layer in self.layers for a in (layer.w, layer.b)]

    def copy(self) -> "MlpParams":
        return MlpParams([Layer(l.w.copy(), l.b.copy(), l.activation) for l in self.layers])


def init_mlp(sizes, activations=None, rng=None) -> MlpParams:
    """Xavier/Glorot-uniform initialized MLP; `sizes` includes input width.

    activations defaults to relu on hidden layers and identity on the last.
    """
    rng = np.random.default_rng(rng)
    n_layers = len(sizes) - 1
    if activations is None:
        activations = ["relu"] * (n_layers - 1) + ["identity"]
    layers = []
    for i in range(n_layers):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        layers.append(Layer(w, np.zeros(fan_out), activations[i]))
    return MlpParams(layers)


@dataclass
class MlpCache:
    inputs: list[np.ndarray] = field(default_factory=list)  # per layer, (B, in)
    pre: list[np.ndarray] = field(default_factory=list)  # per layer, (B, out)
    post: list[np.ndarray] = field(default_factory=list)  # per layer, (B, out)
    single: bool = False


def mlp_forward(params: MlpParams, x) -> tuple[np.ndarray, MlpCache]:
    """Forward pass; returns (output, cache) where cache supports backward."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    a = np.atleast_2d(x)
    if a.ndim != 2 or a.shape[1] != params.in_dim:
        raise ShapeError(f"input width {a.shape[-1]} != first layer width {params.in_dim}")
    cache = MlpCache(single=single)
    for layer in params.layers:
        z = a @ layer.w.T
        z += layer.b
        if layer.activation == "relu":
            post = np.maximum(z, 0.0)
        elif layer.activation == "tanh":
            post = np.tanh(z)
        else:
            post = z
        cache.inputs.append(a)
        cache.pre.append(z)
        cache.post.append(post)
        a = post
    return (a[0] if single else a), cache


def mlp_backward(params: MlpParams, cache: MlpCache, grad_output):
    """Backprop through a cached forward pass.

    Returns (grad, grad_input); grad is laid out like ``MlpParams.flat``,
    each layer's (dw, db) summed over the batch and written into its slot.
    """
    g = np.atleast_2d(np.asarray(grad_output, dtype=np.float64))
    if len(cache.pre) != len(params.layers):
        raise ShapeError("cache layer count does not match params")
    if g.shape != cache.pre[-1].shape:
        raise ShapeError(
            f"grad_output shape {g.shape} != forward output shape {cache.pre[-1].shape}"
        )
    grad = np.empty_like(params.flat)
    slots = params.views(grad)
    for i in reversed(range(len(params.layers))):
        layer = params.layers[i]
        if layer.activation == "relu":
            g = g * (cache.pre[i] > 0.0)
        elif layer.activation == "tanh":
            g = g * (1.0 - cache.post[i] * cache.post[i])
        np.matmul(g.T, cache.inputs[i], out=slots[i][0])
        np.add.reduce(g, axis=0, out=slots[i][1])
        g = g @ layer.w
    return grad, (g[0] if cache.single else g)


# ---------------------------------------------------------------------------
# Adam


@dataclass
class OptimizerState:
    """Adam state over a fixed list of parameter arrays (m, v: their moments)."""

    lr: float
    m: list
    v: list
    step: int = 0


def make_optimizer(params, lr) -> OptimizerState:
    return OptimizerState(lr, [np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params])


def optimizer_step(params: list, grads: list, state: OptimizerState) -> list:
    """One Adam update in place, in the textbook operation order. Returns params."""
    if len(grads) != len(params):
        raise ShapeError("grads and params length mismatch")
    for g in grads:
        if not np.isfinite(g).all():
            raise NumericError("non-finite gradient passed to optimizer_step")
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.step
    bc2 = 1.0 - ADAM_BETA2 ** state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        a, b = np.empty_like(p), np.empty_like(p)  # scratch, freed after the step
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=a)
        v *= ADAM_BETA2
        v += np.multiply(np.multiply(g, 1.0 - ADAM_BETA2, out=a), g, out=a)
        np.multiply(np.divide(m, bc1, out=a), state.lr, out=a)  # lr * (m / bc1)
        np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), ADAM_EPS, out=b)  # sqrt(v / bc2) + eps
        p -= np.divide(a, b, out=a)
        if not np.isfinite(p).all():
            raise NumericError("optimizer_step produced non-finite parameters")
    return params


# ---------------------------------------------------------------------------
# normalization and gradient checking


def _unit_rows(x):
    """(x / ||x||, ||x||, dead) by row of x as 2-D float64; dead rows (norm <= NORM_FLOOR)
    read norm 1, and a finite row whose norm overflows m * ||x / m||, m = max |x|."""
    x = np.asarray(np.atleast_2d(x), dtype=np.float64)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(x, axis=1)
        if np.isinf(norms).any():
            big = np.flatnonzero(np.isinf(norms) & np.isfinite(x).all(axis=1))
            m = np.abs(x[big]).max(axis=1, keepdims=True)
            norms[big] = m[:, 0] * np.linalg.norm(x[big] / m, axis=1)
    dead = norms <= NORM_FLOOR
    safe = np.where(dead, 1.0, norms)
    return x / safe[:, None], safe, dead


def l2_normalize_rows(x) -> np.ndarray:
    """Unit-normalize each row; rows with norm <= NORM_FLOOR map to the basis vector e1."""
    out, _, dead = _unit_rows(x)
    if np.any(dead):
        out[dead] = 0.0
        out[dead, 0] = 1.0
    return out


def l2_normalize_rows_backward(x, grad_out) -> np.ndarray:
    """Backprop through xi = x / ||x|| row-wise.

    Degenerate rows (norm <= NORM_FLOOR) produce a constant output, so their
    gradient is zero.
    """
    xi, safe, dead = _unit_rows(x)
    g = np.atleast_2d(grad_out)
    dots = np.sum(xi * g, axis=1, keepdims=True)
    grad = (g - xi * dots) / safe[:, None]
    grad[dead] = 0.0
    return grad


def finite_diff_check(fn, theta) -> float:
    """Max relative error between fn's analytic gradient and central differences.

    fn(theta) must return (loss, grad) for a flat float64 vector theta; each
    coordinate is probed at +-FD_STEP. Relative error per coordinate is
    |a - fd| / max(|a|, |fd|, 1e-8).
    """
    theta = np.asarray(theta, dtype=np.float64).copy()
    loss, grad = fn(theta)
    grad = np.asarray(grad, dtype=np.float64)
    if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
        raise NumericError("loss_fn returned non-finite values")
    if grad.shape != theta.shape:
        raise ShapeError("analytic gradient shape != parameter shape")
    worst = 0.0
    for i in range(theta.size):
        t = theta.copy()
        t[i] += FD_STEP
        lp, _ = fn(t)
        t[i] -= 2.0 * FD_STEP
        lm, _ = fn(t)
        if not (np.isfinite(lp) and np.isfinite(lm)):
            raise NumericError("loss_fn returned non-finite values during probing")
        fd = (lp - lm) / (2.0 * FD_STEP)
        err = abs(grad[i] - fd) / max(abs(grad[i]), abs(fd), 1e-8)
        worst = max(worst, err)
    return worst


def pack_arrays(arrays) -> tuple[np.ndarray, list]:
    """Flatten a list of arrays into one vector; returns (flat, shapes)."""
    shapes = [a.shape for a in arrays]
    flat = np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays])
    return flat, shapes


def unpack_arrays(flat, shapes) -> list[np.ndarray]:
    out = []
    offset = 0
    for shape in shapes:
        size = int(np.prod(shape)) if shape else 1
        out.append(np.asarray(flat[offset : offset + size]).reshape(shape))
        offset += size
    return out
