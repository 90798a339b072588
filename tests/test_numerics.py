import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionseg import numerics
from motionseg.errors import NumericError, ShapeError
from motionseg.numerics import (
    Layer,
    MlpParams,
    finite_diff_check,
    init_mlp,
    l2_normalize_rows,
    mlp_backward,
    mlp_forward,
    pack_arrays,
    unpack_arrays,
)


def test_forward_identity_single_layer():
    params = MlpParams([Layer(np.eye(2), np.zeros(2), "identity")])
    out, _ = mlp_forward(params, np.array([1.0, 2.0]))
    np.testing.assert_allclose(out, [1.0, 2.0])


def test_forward_relu_clamps_negatives():
    params = MlpParams([Layer(np.eye(2), np.zeros(2), "relu")])
    out, _ = mlp_forward(params, np.array([-1.0, 2.0]))
    np.testing.assert_allclose(out, [0.0, 2.0])


def test_forward_two_layer_matches_hand_computation():
    w1 = np.array([[0.5, -0.25], [1.0, 0.75]])
    b1 = np.array([0.1, -0.2])
    w2 = np.array([[2.0, -1.0]])
    b2 = np.array([0.05])
    params = MlpParams([Layer(w1, b1, "tanh"), Layer(w2, b2, "identity")])
    x = np.array([0.3, -0.6])
    h = np.tanh(w1 @ x + b1)
    expected = w2 @ h + b2
    out, _ = mlp_forward(params, x)
    np.testing.assert_allclose(out, expected, rtol=1e-12)


def test_forward_width_mismatch_raises():
    params = MlpParams([Layer(np.eye(2), np.zeros(2))])
    with pytest.raises(ShapeError):
        mlp_forward(params, np.zeros(3))


def test_backward_linear_layer_weight_grad_is_outer_product():
    params = MlpParams([Layer(np.zeros((3, 2)), np.zeros(3), "identity")])
    x = np.array([0.7, -1.1])
    _, cache = mlp_forward(params, x)
    e1 = np.array([1.0, 0.0, 0.0])
    grad, _ = mlp_backward(params, cache, e1)
    (dw, db), = params.views(grad)
    np.testing.assert_allclose(dw, np.outer(e1, x))
    np.testing.assert_allclose(db, e1)


def test_backward_zero_grad_output_gives_zero_grads():
    params = init_mlp([3, 4, 2], rng=0)
    _, cache = mlp_forward(params, np.ones(3))
    grad, gx = mlp_backward(params, cache, np.zeros(2))
    assert grad.shape == params.flat.shape and not grad.any()
    assert not gx.any()


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(7)
    params = init_mlp([4, 5, 3], activations=["tanh", "identity"], rng=rng)
    x = rng.normal(size=4)
    target = rng.normal(size=3)
    arrays = params.param_arrays()
    flat0, shapes = pack_arrays(arrays)

    def loss_fn(flat):
        vals = unpack_arrays(flat, shapes)
        trial = MlpParams(
            [
                Layer(vals[2 * i], vals[2 * i + 1], layer.activation)
                for i, layer in enumerate(params.layers)
            ]
        )
        out, cache = mlp_forward(trial, x)
        diff = out - target
        grad, _ = mlp_backward(trial, cache, diff)
        return 0.5 * float(diff @ diff), grad

    assert finite_diff_check(loss_fn, flat0) < 1e-4


def test_backward_stale_cache_raises():
    params = init_mlp([3, 2], rng=0)
    _, cache = mlp_forward(params, np.ones(3))
    with pytest.raises(ShapeError):
        mlp_backward(params, cache, np.zeros(5))


def test_input_perturbation_matches_grad_input():
    rng = np.random.default_rng(3)
    params = init_mlp([4, 6, 2], activations=["tanh", "identity"], rng=rng)
    x = rng.normal(size=4)
    w = rng.normal(size=2)
    out, cache = mlp_forward(params, x)
    _, gx = mlp_backward(params, cache, w)
    delta = rng.normal(size=4) * 1e-6
    out2, _ = mlp_forward(params, x + delta)
    predicted = float(gx @ delta)
    actual = float(w @ (out2 - out))
    assert abs(predicted - actual) < 1e-10


def test_finite_diff_quadratic_is_exact():
    def fn(p):
        return 0.5 * float(p @ p), p

    assert finite_diff_check(fn, np.array([0.3, -1.2, 2.0])) < 1e-6


def test_finite_diff_flags_wrong_gradient():
    def fn(p):
        return 0.5 * float(p @ p), 2.0 * p

    err = finite_diff_check(fn, np.array([0.5, 1.5]))
    assert abs(err - 0.5) < 1e-4


def test_finite_diff_nonfinite_loss_raises():
    def fn(p):
        return float("nan"), p

    with pytest.raises(NumericError):
        finite_diff_check(fn, np.ones(2))


def test_adam_zero_gradient_leaves_params_unchanged():
    p = [np.array([1.0, -2.0])]
    state = numerics.make_optimizer(p, lr=0.1)
    numerics.optimizer_step(p, [np.zeros(2)], state)
    np.testing.assert_allclose(p[0], [1.0, -2.0])
    assert state.step == 1


def test_adam_first_step_magnitude_is_learning_rate():
    p = [np.zeros(3)]
    state = numerics.make_optimizer(p, lr=0.05)
    numerics.optimizer_step(p, [np.full(3, 7.3)], state)
    np.testing.assert_allclose(np.abs(p[0]), 0.05, rtol=1e-6)


def test_adam_descends_on_quadratic():
    p = [np.array([1.0, 1.0])]
    state = numerics.make_optimizer(p, lr=0.01)
    norms = []
    for _ in range(100):
        numerics.optimizer_step(p, [p[0].copy()], state)
        norms.append(np.linalg.norm(p[0]))
    # monotone decrease once past the first few warmup steps
    tail = norms[5:]
    assert all(b < a + 1e-12 for a, b in zip(tail, tail[1:]))
    assert norms[-1] < 0.5


def test_adam_rejects_nonfinite_grads():
    p = [np.ones(2)]
    state = numerics.make_optimizer(p, lr=1e-3)
    with pytest.raises(NumericError):
        numerics.optimizer_step(p, [np.array([1.0, np.inf])], state)


def test_optimizers_are_deterministic():
    results = []
    for _ in range(2):
        p = [np.array([0.5, -0.5])]
        state = numerics.make_optimizer(p, lr=0.01)
        for k in range(5):
            numerics.optimizer_step(p, [np.array([0.1 * k, -0.2])], state)
        results.append(p[0].copy())
    np.testing.assert_array_equal(results[0], results[1])


def test_adam_on_one_flat_vector_equals_per_array_steps_bit_for_bit():
    rng = np.random.default_rng(11)
    arrays = [rng.normal(size=shape) for shape in ((5, 3), (5,), (2, 5), (2,))]
    flat = [np.concatenate([a.ravel() for a in arrays])]
    flat_state = numerics.make_optimizer(flat, lr=0.01)
    split_state = numerics.make_optimizer(arrays, lr=0.01)
    for _ in range(6):
        grads = [rng.normal(size=a.shape) * 10.0 ** rng.integers(-6, 3) for a in arrays]
        numerics.optimizer_step(arrays, grads, split_state)
        numerics.optimizer_step(flat, [np.concatenate([g.ravel() for g in grads])], flat_state)
        assert flat[0].tobytes() == np.concatenate([a.ravel() for a in arrays]).tobytes()
    assert flat_state.step == split_state.step == 6


def reference_adam_step(params, grads, state):
    """optimizer_step as one expression per array, kept as the in-place step's reference."""
    state.step += 1
    bc1 = 1.0 - numerics.ADAM_BETA1 ** state.step
    bc2 = 1.0 - numerics.ADAM_BETA2 ** state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= numerics.ADAM_BETA1
        m += (1.0 - numerics.ADAM_BETA1) * g
        v *= numerics.ADAM_BETA2
        v += (1.0 - numerics.ADAM_BETA2) * g * g
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + numerics.ADAM_EPS)


@settings(max_examples=40, deadline=None)
@given(
    shapes=st.lists(
        st.lists(st.integers(1, 7), min_size=1, max_size=2).map(tuple), min_size=1, max_size=4
    ),
    lr=st.sampled_from([1e-3, 1e-2, 0.1]),
    seed=st.integers(0, 2**31 - 1),
)
def test_adam_in_place_equals_reference_expression_bit_for_bit(shapes, lr, seed):
    rng = np.random.default_rng(seed)
    params = [rng.normal(size=shape) for shape in shapes]
    ref = [p.copy() for p in params]
    state = numerics.make_optimizer(params, lr=lr)
    ref_state = numerics.make_optimizer(ref, lr=lr)
    for _ in range(50):
        # gradients spanning 12 decades, with exact zeros as relu layers produce
        grads = [
            rng.normal(size=p.shape) * 10.0 ** rng.integers(-8, 4) * (rng.random(p.shape) < 0.8)
            for p in params
        ]
        numerics.optimizer_step(params, grads, state)
        reference_adam_step(ref, grads, ref_state)
        for a, b in zip(params + state.m + state.v, ref + ref_state.m + ref_state.v):
            assert a.tobytes() == b.tobytes()
    assert state.step == ref_state.step == 50


def reference_mlp_backward(params, cache, grad_output):
    """mlp_backward as per-layer (dw, db) pairs concatenated afterwards, kept as the
    reference of the version that writes each pair into one flat vector."""
    g = np.atleast_2d(grad_output)
    grads = [None] * len(params.layers)
    for i in reversed(range(len(params.layers))):
        layer = params.layers[i]
        if layer.activation == "relu":
            g = g * (cache.pre[i] > 0.0)
        elif layer.activation == "tanh":
            g = g * (1.0 - cache.post[i] * cache.post[i])
        grads[i] = (g.T @ cache.inputs[i], g.sum(axis=0))
        g = g @ layer.w
    flat = np.concatenate([a.ravel() for pair in grads for a in pair])
    return flat, (g[0] if cache.single else g)


@pytest.mark.parametrize(
    "sizes, activations",
    [
        ([64, 256, 64, 32], ["relu", "relu", "identity"]),  # the encoder
        ([32, 64, 32, 16], ["relu", "relu", "identity"]),  # the pose decoder
        ([13, 9, 5], ["tanh", "tanh"]),
        ([7, 11, 3], ["identity", "identity"]),
        ([5, 4], ["relu"]),
    ],
)
@pytest.mark.parametrize("batch", [1, 7, 64, 128, 129])
def test_mlp_backward_equals_per_layer_reference_bit_for_bit(sizes, activations, batch):
    rng = np.random.default_rng(batch)
    params = init_mlp(sizes, activations=activations, rng=rng)
    for x in (rng.normal(size=(batch, sizes[0])), rng.normal(size=sizes[0])):
        out, cache = mlp_forward(params, x)
        grad_out = rng.normal(size=out.shape)
        grad, gx = mlp_backward(params, cache, grad_out)
        ref, ref_gx = reference_mlp_backward(params, cache, grad_out)
        assert grad.tobytes() == ref.tobytes()
        assert gx.tobytes() == ref_gx.tobytes()
        assert not np.shares_memory(grad, params.flat)


def _assert_layers_view_flat(mlp):
    offset = 0
    for layer in mlp.layers:
        for a in (layer.w, layer.b):
            assert np.shares_memory(a, mlp.flat)
            assert a.tobytes() == mlp.flat[offset : offset + a.size].tobytes()
            offset += a.size
    assert offset == mlp.flat.size


def test_mlp_layers_are_views_of_flat_after_init_copy_and_load(tmp_path):
    from motionseg.embedding import Encoder
    from motionseg.modelio import load_model, save_model

    mlp = init_mlp([4, 6, 3], rng=np.random.default_rng(0))
    _assert_layers_view_flat(mlp)
    dup = mlp.copy()
    _assert_layers_view_flat(dup)
    assert not np.shares_memory(dup.flat, mlp.flat)
    dup.flat += 1.0
    assert not np.array_equal(dup.layers[0].w, mlp.layers[0].w)
    save_model(Encoder(mlp=mlp), tmp_path / "enc.model")
    back = load_model(tmp_path / "enc.model").mlp
    _assert_layers_view_flat(back)
    assert back.flat.tobytes() == mlp.flat.tobytes()


def test_optimizer_step_on_flat_changes_forward_output():
    mlp = init_mlp([3, 5, 2], rng=np.random.default_rng(1))
    x = np.array([0.3, -1.2, 0.8])
    before, _ = mlp_forward(mlp, x)
    state = numerics.make_optimizer([mlp.flat], lr=0.1)
    numerics.optimizer_step([mlp.flat], [np.ones_like(mlp.flat)], state)
    after, _ = mlp_forward(mlp, x)
    assert not np.allclose(before, after)
    expected = MlpParams([Layer(l.w.copy(), l.b.copy(), l.activation) for l in mlp.layers])
    np.testing.assert_array_equal(after, mlp_forward(expected, x)[0])


def test_l2_normalize_three_four_five():
    np.testing.assert_allclose(l2_normalize_rows(np.array([3.0, 4.0]))[0], [0.6, 0.8])


def test_l2_normalize_unit_vector_unchanged():
    v = np.array([0.0, 1.0, 0.0])
    np.testing.assert_allclose(l2_normalize_rows(v)[0], v)


def test_l2_normalize_degenerate_maps_to_e1():
    out = l2_normalize_rows(np.zeros(4))[0]
    np.testing.assert_array_equal(out, [1.0, 0.0, 0.0, 0.0])
    out = l2_normalize_rows(np.full(3, 1e-15))[0]
    np.testing.assert_array_equal(out, [1.0, 0.0, 0.0])


def test_l2_normalize_rescues_rows_whose_norm_overflows():
    # the squares of 1e300 overflow; the row still has the finite norm sqrt(2) * 1e300
    x = np.array([[1e300, 1e300], [3.0, 4.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = l2_normalize_rows(x)
        grad = numerics.l2_normalize_rows_backward(x, np.array([[1.0, 0.0], [0.0, 1.0]]))
    np.testing.assert_allclose(out[0], [np.sqrt(0.5), np.sqrt(0.5)], rtol=1e-15)
    np.testing.assert_array_equal(out[1], l2_normalize_rows(np.array([3.0, 4.0]))[0])
    assert np.isfinite(grad).all() and np.abs(grad[0]).max() > 0
    direction = grad[0] / np.abs(grad[0]).max()  # of order 1e-300 itself
    assert abs(direction @ out[0]) <= 1e-12  # orthogonal to the row


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=8
    )
)
def test_l2_normalize_norm_property(values):
    v = np.asarray(values)
    out = l2_normalize_rows(v)[0]
    assert abs(np.linalg.norm(out) - 1.0) < 1e-9


def test_pack_unpack_roundtrip():
    arrays = [np.arange(6.0).reshape(2, 3), np.array([1.5])]
    flat, shapes = pack_arrays(arrays)
    back = unpack_arrays(flat, shapes)
    for a, b in zip(arrays, back):
        np.testing.assert_array_equal(a, b)
