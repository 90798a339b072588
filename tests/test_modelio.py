import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionseg.embedding import Encoder, new_encoder
from motionseg.errors import DataFormatError, ModelInvalidError
from motionseg.imitation import PoseDecoder, new_pose_decoder
from motionseg.modelio import LAYOUTS, MAGIC, _read, _write, load_model, save_model
from motionseg.numerics import Layer, MlpParams, pack_arrays
from motionseg.seqmodels.crf import LinearChainCrf, new_crf
from motionseg.seqmodels.hmm import GaussianHmm
from motionseg.seqmodels.hsmm import Hsmm
from motionseg.seqmodels.knn import KnnModel
from motionseg.seqmodels.rnn import BiRnn, LstmCell, new_birnn


def roundtrip(model, tmp_path, name="m.model"):
    path = tmp_path / name
    save_model(model, path)
    return load_model(path), path


def test_encoder_roundtrip_bit_exact(tmp_path):
    enc = new_encoder(12, dim=5, hidden=(16, 8), seed=0)
    enc.trained = True
    back, path = roundtrip(enc, tmp_path)
    np.testing.assert_array_equal(
        pack_arrays(enc.mlp.param_arrays())[0], pack_arrays(back.mlp.param_arrays())[0]
    )
    assert back.trained
    assert [l.activation for l in back.mlp.layers] == [l.activation for l in enc.mlp.layers]
    # saving the loaded model byte-matches the original file
    save_model(back, tmp_path / "again.model")
    assert (tmp_path / "again.model").read_bytes() == path.read_bytes()


def test_hmm_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    hmm = GaussianHmm(
        pi=rng.dirichlet(np.ones(3)),
        A=rng.dirichlet(np.ones(3), size=3),
        means=rng.normal(size=(3, 4)),
        covs=np.stack([np.eye(4) * (1 + i) for i in range(3)]),
    )
    back, _ = roundtrip(hmm, tmp_path)
    for name in ("pi", "A", "means", "covs"):
        np.testing.assert_array_equal(getattr(hmm, name), getattr(back, name))


def test_hsmm_roundtrip(tmp_path):
    hsmm = Hsmm(
        pi=[0.4, 0.6],
        A=[[0.0, 1.0], [1.0, 0.0]],
        means=np.array([[0.0], [1.0]]),
        covs=np.stack([np.eye(1)] * 2),
        lambdas=[2.5, 7.0],
        d_max=17,
    )
    back, _ = roundtrip(hsmm, tmp_path)
    assert back.d_max == 17
    np.testing.assert_array_equal(back.lambdas, hsmm.lambdas)
    np.testing.assert_array_equal(back.A, hsmm.A)


@pytest.mark.parametrize("kind", ["hmm", "hsmm"])
def test_non_positive_definite_covariance_rejected_at_load(tmp_path, kind):
    arrays = {
        "pi": np.array([0.5, 0.5]), "A": np.array([[0.0, 1.0], [1.0, 0.0]]),
        "means": np.zeros((2, 1)), "covs": np.array([[[1.0]], [[-1.0]]]),
    }
    meta = {}
    if kind == "hsmm":
        arrays["lambdas"], meta["d_max"] = np.array([2.0, 3.0]), 5
    _write(tmp_path / "m.model", kind, meta, arrays)
    with pytest.raises(ModelInvalidError, match="not positive definite"):
        load_model(tmp_path / "m.model")


def test_crf_roundtrip(tmp_path):
    crf = new_crf(4, 6, num_basis=8, seed=1)
    crf.unary += 0.3
    crf.trained = True
    back, _ = roundtrip(crf, tmp_path)
    np.testing.assert_array_equal(back.projection, crf.projection)
    np.testing.assert_array_equal(back.unary, crf.unary)
    assert back.trained


def test_birnn_roundtrip(tmp_path):
    rnn = new_birnn(input_dim=5, num_labels=3, hidden=4, stride=9, seed=2)
    back, _ = roundtrip(rnn, tmp_path)
    assert back.stride == 9
    np.testing.assert_array_equal(
        pack_arrays(rnn.param_arrays())[0], pack_arrays(back.param_arrays())[0]
    )


def test_knn_roundtrip(tmp_path):
    model = KnnModel(np.random.default_rng(3).normal(size=(10, 2)), np.arange(10) % 3 + 1, k=4)
    back, _ = roundtrip(model, tmp_path)
    assert back.k == 4
    np.testing.assert_array_equal(back.train_points, model.train_points)
    np.testing.assert_array_equal(back.train_labels, model.train_labels)


def test_pose_decoder_roundtrip(tmp_path):
    dec = new_pose_decoder(6, hidden=(12, 8), w_pos=0.7, scope="per_demonstrator", seed=4)
    back, _ = roundtrip(dec, tmp_path)
    assert back.w_pos == 0.7 and back.scope == "per_demonstrator"
    np.testing.assert_array_equal(
        pack_arrays(dec.mlp.param_arrays())[0], pack_arrays(back.mlp.param_arrays())[0]
    )


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.model"
    path.write_bytes(b"NOTAMODEL\n{}")
    with pytest.raises(DataFormatError):
        load_model(path)


# ---------------------------------------------------------------------------
# the file format, pinned: one model of each kind built from fixed arrays


def grid(*shape):
    return (np.arange(int(np.prod(shape))) % 7 - 3.0).reshape(shape) / 8.0


def fixed_mlp(sizes, activations):
    return MlpParams([
        Layer(grid(o, i), grid(o)[::-1], act) for i, o, act in zip(sizes, sizes[1:], activations)
    ])


def fixed_models():
    return {
        "encoder": Encoder(fixed_mlp([5, 6, 3], ["relu", "identity"]), trained=True),
        "hmm": GaussianHmm(
            pi=np.full(3, 1 / 3), A=np.full((3, 3), 1 / 3), means=grid(3, 2),
            covs=np.stack([np.eye(2) * (1 + i) for i in range(3)]),
        ),
        "hsmm": Hsmm(
            pi=[0.25, 0.75], A=[[0.0, 1.0], [1.0, 0.0]], means=grid(2, 3),
            covs=np.stack([np.eye(3)] * 2), lambdas=[2.5, 7.0], d_max=9,
        ),
        "crf": LinearChainCrf(
            projection=grid(4, 3), unary=grid(3, 4), transitions=grid(3, 3), trained=True
        ),
        "birnn": BiRnn(
            LstmCell(grid(8, 3), grid(8, 2), grid(8)), LstmCell(grid(8, 3), grid(8, 2), -grid(8)),
            w_out=grid(4, 4), b_out=grid(4), stride=7,
        ),
        "knn": KnnModel(grid(6, 2), np.arange(6) % 3 + 1, k=2),
        "pose_decoder": PoseDecoder(
            fixed_mlp([4, 5, 16], ["tanh", "identity"]), w_pos=0.25, scope="per_demonstrator"
        ),
    }


# sha256 of each fixed model's file: the file format changes only if one of these is changed
PINNED_SHA256 = {
    "encoder": "01cf04a8857b16ac299a65e22f0f02aef38ffe21ef7c153f979f9c5247c28c68",
    "hmm": "bdb84b9fe58f619e7e99d9a80f7afb4328c700dbe8f286190dbf6d7c43ed63c6",
    "hsmm": "3d19d38101c4ad34034f659cc4e6ae68e2271f7a882ca0c9243d5c4ed23e7755",
    "crf": "9507fa8ca9ce7ae491616b8b80d5a6e303a6e91a3a8e08481285e9cc517ae57b",
    "birnn": "2766bf7052154070f4cb9fbf1724df7627fa4417560e9361aa53aa596599fdf2",
    "knn": "880a22dbcac0dabbec52bcde503492411268c0e57cffdbc2424c83fa34c2bc31",
    "pose_decoder": "7cac93cfd96e63f968f5236600e8344470c126ba0ba3e488701003fb983111af",
}


@pytest.mark.parametrize("kind", sorted(PINNED_SHA256))
def test_saved_file_bytes_are_pinned(tmp_path, kind):
    model = fixed_models()[kind]
    back, path = roundtrip(model, tmp_path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_SHA256[kind]
    save_model(back, tmp_path / "again.model")
    assert (tmp_path / "again.model").read_bytes() == path.read_bytes()


# ---------------------------------------------------------------------------
# non-finite parameters fail when a model is built, naming the parameter

# (name in the message, one fixed instance, its float parameters) per class
# that a saved kind builds: MLP kinds through Layer, birnn through LstmCell
FINITE_CHECKS = {
    "Layer": lambda m: ("layer", m["encoder"].mlp.layers[0], ("w", "b")),
    "LstmCell": lambda m: ("lstm cell", m["birnn"].fwd, ("w", "u", "b")),
    "BiRnn": lambda m: ("birnn", m["birnn"], ("w_out", "b_out")),
    "GaussianHmm": lambda m: ("hmm", m["hmm"], ("pi", "A", "means", "covs")),
    "Hsmm": lambda m: ("hsmm", m["hsmm"], ("pi", "A", "means", "covs", "lambdas")),
    "LinearChainCrf": lambda m: ("crf", m["crf"], ("projection", "unary", "transitions")),
    "KnnModel": lambda m: ("knn", m["knn"], ("train_points",)),
}


@pytest.mark.parametrize("cls", sorted(FINITE_CHECKS))
def test_non_finite_parameter_rejected_at_build(cls):
    name, model, params = FINITE_CHECKS[cls](fixed_models())
    for param in params:
        for bad_value in (np.nan, np.inf, -np.inf):
            bad = np.array(getattr(model, param), dtype=np.float64)
            bad.flat[-1] = bad_value
            with pytest.raises(ModelInvalidError, match=f"^{name} {param} must be finite$"):
                dataclasses.replace(model, **{param: bad})


@pytest.mark.parametrize("kind", sorted(PINNED_SHA256))
def test_saved_non_finite_parameter_rejected_at_load(tmp_path, kind):
    path = tmp_path / "m.model"
    save_model(fixed_models()[kind], path)
    _, meta, arrays = _read(path)
    for name, arr in arrays.items():
        if arr.dtype.kind != "f":
            continue  # knn labels
        bad = arr.copy()
        bad.flat[0] = np.nan
        _write(path, kind, meta, {**arrays, name: bad})
        with pytest.raises(ModelInvalidError, match="must be finite"):
            load_model(path)


# ---------------------------------------------------------------------------
# damaged files fail at the boundary, naming the file


def assert_rejected(path, match):
    with pytest.raises(DataFormatError, match=match) as info:
        load_model(path)
    assert info.value.path == str(path)


@pytest.mark.parametrize("kind", sorted(PINNED_SHA256))
def test_truncated_file_rejected(tmp_path, kind):
    path = tmp_path / "m.model"
    save_model(fixed_models()[kind], path)
    whole = path.read_bytes()
    header_end = whole.index(b"\n", len(MAGIC)) + 1
    for cut in (header_end + 3, header_end + 100, len(whole) - 1):
        path.write_bytes(whole[:cut])
        assert_rejected(path, "unreadable")


@pytest.mark.parametrize("header", [
    b"not json\n",
    b"\xff\xfe\n",
    b"[1, 2]\n",
    b'{"meta": {}, "arrays": []}\n',
    b'{"kind": "hmm", "arrays": []}\n',
    b'{"kind": "hmm", "meta": {}}\n',
])
def test_header_without_kind_meta_and_arrays_rejected(tmp_path, header):
    path = tmp_path / "m.model"
    path.write_bytes(MAGIC + header)
    assert_rejected(path, "header")


def test_missing_or_extra_array_rejected(tmp_path):
    hmm = fixed_models()["hmm"]
    arrays = {"pi": hmm.pi, "A": hmm.A, "means": hmm.means}
    _write(tmp_path / "m.model", "hmm", {}, arrays)
    assert_rejected(tmp_path / "m.model", "arrays must be")
    _write(tmp_path / "m.model", "hmm", {}, {**arrays, "covs": hmm.covs, "extra": hmm.pi})
    assert_rejected(tmp_path / "m.model", "arrays must be")


@pytest.mark.parametrize("meta,match", [
    ({}, "meta must hold"),
    ({"d_max": 9, "extra": 1}, "meta must hold"),
    ({"d_max": "9"}, "must be int"),
    ({"d_max": 9.0}, "must be int"),
    ({"d_max": True}, "must be int"),
])
def test_missing_or_mistyped_meta_rejected(tmp_path, meta, match):
    hsmm = fixed_models()["hsmm"]
    arrays = {n: getattr(hsmm, n) for n in ("pi", "A", "means", "covs", "lambdas")}
    _write(tmp_path / "m.model", "hsmm", meta, arrays)
    assert_rejected(tmp_path / "m.model", match)


@pytest.mark.parametrize("field,value", [
    ("trained", "yes"), ("trained", 1), ("activations", "relu"), ("activations", ["relu", 3]),
])
def test_mistyped_encoder_meta_rejected(tmp_path, field, value):
    path = tmp_path / "m.model"
    enc = fixed_models()["encoder"]
    meta = {"activations": ["relu", "identity"], "trained": True, field: value}
    arrays = {f"{p}{i}": getattr(l, p) for i, l in enumerate(enc.mlp.layers) for p in "wb"}
    _write(path, "encoder", meta, arrays)
    assert_rejected(path, "activation" if value == ["relu", 3] else "must be")


def test_values_a_model_rejects_name_the_file(tmp_path):
    knn = fixed_models()["knn"]
    _write(tmp_path / "m.model", "knn", {"k": 99}, {"points": knn.train_points, "labels": knn.train_labels})
    assert_rejected(tmp_path / "m.model", "bad knn model")
    _write(tmp_path / "m.model", "knn", {"k": 2}, {"points": knn.train_points, "labels": knn.train_labels[:3]})
    assert_rejected(tmp_path / "m.model", "bad knn model")


def test_knn_points_whose_squares_overflow_rejected_at_load(tmp_path):
    points = np.array([[1e200, 0.0], [0.0, 1.0], [1.0, 1.0]])
    _write(tmp_path / "m.model", "knn", {"k": 1}, {"points": points, "labels": np.array([1, 2, 3])})
    with pytest.raises(ModelInvalidError, match="squared norms must be finite"):
        load_model(tmp_path / "m.model")


def test_birnn_stride_below_one_rejected(tmp_path):
    rnn = fixed_models()["birnn"]
    arrays = {"fw": rnn.fwd.w, "fu": rnn.fwd.u, "fb": rnn.fwd.b, "bw": rnn.bwd.w, "bu": rnn.bwd.u,
              "bb": rnn.bwd.b, "w_out": rnn.w_out, "b_out": rnn.b_out}
    _write(tmp_path / "m.model", "birnn", {"stride": 0}, arrays)
    assert_rejected(tmp_path / "m.model", "stride must be >= 1")


@pytest.mark.parametrize("kind, name, array, match", [
    ("hmm", "covs", np.stack([np.eye(3)] * 3), "shapes disagree"),  # the means are (3, 2)
    ("hsmm", "means", np.zeros((3, 3)), "shapes disagree"),  # the model has 2 states
    ("birnn", "b_out", np.zeros(1), "output bias"),  # 4 labels
    ("birnn", "fb", np.zeros(7), "b \\(4H,\\)"),  # the cell's H is 2
], ids=["hmm-covs", "hsmm-means", "birnn-b_out", "birnn-fb"])
def test_saved_arrays_of_mismatched_shapes_rejected(tmp_path, kind, name, array, match):
    path = tmp_path / "m.model"
    save_model(fixed_models()[kind], path)
    _, meta, arrays = _read(path)
    _write(path, kind, meta, {**arrays, name: array})
    assert_rejected(path, f"bad {kind} model: .*{match}")


@pytest.mark.parametrize("shape", ["(1000000,)", "(100000000000,)", "(3000000000, 3000000000)"])
def test_array_larger_than_the_file_rejected_before_reading(tmp_path, shape):
    # the first array's .npy header claims a shape the file cannot hold; the
    # header keeps its length, the shape taking the place of padding spaces
    path = tmp_path / "m.model"
    save_model(fixed_models()["hmm"], path)
    whole = path.read_bytes()
    start = whole.index(b"'shape': (3,), }")
    end = whole.index(b"\n", start)
    patched = f"'shape': {shape}, }}".encode().ljust(end - start)
    path.write_bytes(whole[:start] + patched + whole[end:])
    assert_rejected(path, "runs past the end of the file")


def test_header_readable_only_as_python_2_rejected(tmp_path):
    # numpy reads `3L` through its Python 2 fallback, with a warning
    path = tmp_path / "m.model"
    save_model(fixed_models()["hmm"], path)
    whole = path.read_bytes()
    start = whole.index(b"'shape': (3,), }")
    end = whole.index(b"\n", start)
    patched = b"'shape': (3L,), }".ljust(end - start)
    path.write_bytes(whole[:start] + patched + whole[end:])
    assert_rejected(path, "created on Python 2")


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for kind, model in fixed_models().items():
        save_model(model, root / f"{kind}.model")
    return root


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(sorted(LAYOUTS)),
    # each edit replaces `cut` bytes at `at` (mod the file length) with `put`
    edits=st.lists(
        st.tuples(st.integers(0, 1 << 16), st.integers(0, 3), st.binary(max_size=3)),
        min_size=1, max_size=4,
    ),
)
def test_model_fuzz_fails_only_with_model_errors(fuzz_root, kind, edits):
    data = bytearray((fuzz_root / f"{kind}.model").read_bytes())
    for at, cut, put in edits:
        at %= len(data)
        data[at : at + cut] = put
    path = fuzz_root / "fuzzed.model"
    path.write_bytes(bytes(data))
    try:
        load_model(path)
    except ModelInvalidError:
        pass
    except DataFormatError as exc:
        assert exc.path == str(path)
