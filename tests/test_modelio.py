import numpy as np
import pytest

from motionseg.embedding import new_encoder
from motionseg.errors import DataFormatError, ModelInvalidError
from motionseg.imitation import new_pose_decoder
from motionseg.modelio import _write, load_model, save_model
from motionseg.numerics import pack_arrays
from motionseg.seqmodels.crf import new_crf
from motionseg.seqmodels.hmm import GaussianHmm
from motionseg.seqmodels.hsmm import Hsmm
from motionseg.seqmodels.knn import KnnModel
from motionseg.seqmodels.rnn import new_birnn


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
