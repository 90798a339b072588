"""Versioned single-file model serialization.

Layout: a magic header line, one JSON metadata line (kind, meta fields,
array names in order), then each array appended with np.save. Float64
arrays round-trip bit-exactly.
"""

from __future__ import annotations

import json

import numpy as np

from .embedding import Encoder
from .errors import DataFormatError
from .numerics import Layer, MlpParams
from .seqmodels.crf import LinearChainCrf
from .seqmodels.hmm import GaussianHmm
from .seqmodels.hsmm import Hsmm
from .seqmodels.knn import KnnModel
from .seqmodels.rnn import BiRnn, LstmCell

MAGIC = b"MSEGMODEL1\n"


def _write(path, kind: str, meta: dict, arrays: dict):
    names = list(arrays)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        header = json.dumps({"kind": kind, "meta": meta, "arrays": names}, sort_keys=True)
        fh.write(header.encode("utf-8") + b"\n")
        for name in names:
            np.save(fh, np.ascontiguousarray(arrays[name]), allow_pickle=False)


def _read(path):
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise DataFormatError("not a model file (bad magic)", path=str(path))
        header = json.loads(fh.readline().decode("utf-8"))
        arrays = {name: np.load(fh, allow_pickle=False) for name in header["arrays"]}
    return header["kind"], header["meta"], arrays


def _mlp_arrays(mlp: MlpParams):
    return {f"{name}{i}": a for i, l in enumerate(mlp.layers) for name, a in (("w", l.w), ("b", l.b))}


def _mlp_from_arrays(arrays, activations):
    return MlpParams([Layer(arrays[f"w{i}"], arrays[f"b{i}"], act) for i, act in enumerate(activations)])


def save_model(model, path) -> None:
    if isinstance(model, Encoder):
        meta = {
            "activations": [l.activation for l in model.mlp.layers],
            "trained": model.trained,
        }
        _write(path, "encoder", meta, _mlp_arrays(model.mlp))
    elif isinstance(model, GaussianHmm):
        _write(path, "hmm", {}, {"pi": model.pi, "A": model.A, "means": model.means, "covs": model.covs})
    elif isinstance(model, Hsmm):
        _write(
            path, "hsmm", {"d_max": model.d_max},
            {"pi": model.pi, "A": model.A, "means": model.means, "covs": model.covs, "lambdas": model.lambdas},
        )
    elif isinstance(model, LinearChainCrf):
        _write(
            path, "crf", {"trained": model.trained},
            {"projection": model.projection, "unary": model.unary, "transitions": model.transitions},
        )
    elif isinstance(model, BiRnn):
        arrays = {
            "fw": model.fwd.w, "fu": model.fwd.u, "fb": model.fwd.b,
            "bw": model.bwd.w, "bu": model.bwd.u, "bb": model.bwd.b,
            "w_out": model.w_out, "b_out": model.b_out,
        }
        _write(path, "birnn", {"stride": model.stride}, arrays)
    elif isinstance(model, KnnModel):
        _write(path, "knn", {"k": model.k}, {"points": model.train_points, "labels": model.train_labels})
    else:
        from .imitation import PoseDecoder

        if isinstance(model, PoseDecoder):
            meta = {
                "activations": [l.activation for l in model.mlp.layers],
                "w_pos": model.w_pos,
                "scope": model.scope,
            }
            _write(path, "pose_decoder", meta, _mlp_arrays(model.mlp))
        else:
            raise TypeError(f"cannot serialize {type(model).__name__}")


def load_model(path):
    kind, meta, arrays = _read(path)
    if kind == "encoder":
        return Encoder(mlp=_mlp_from_arrays(arrays, meta["activations"]), trained=meta["trained"])
    if kind == "hmm":
        return GaussianHmm(pi=arrays["pi"], A=arrays["A"], means=arrays["means"], covs=arrays["covs"])
    if kind == "hsmm":
        return Hsmm(
            pi=arrays["pi"], A=arrays["A"], means=arrays["means"], covs=arrays["covs"],
            lambdas=arrays["lambdas"], d_max=int(meta["d_max"]),
        )
    if kind == "crf":
        return LinearChainCrf(
            projection=arrays["projection"], unary=arrays["unary"],
            transitions=arrays["transitions"], trained=meta["trained"],
        )
    if kind == "birnn":
        return BiRnn(
            fwd=LstmCell(arrays["fw"], arrays["fu"], arrays["fb"]),
            bwd=LstmCell(arrays["bw"], arrays["bu"], arrays["bb"]),
            w_out=arrays["w_out"], b_out=arrays["b_out"], stride=int(meta["stride"]),
        )
    if kind == "knn":
        return KnnModel(arrays["points"], arrays["labels"], k=int(meta["k"]))
    if kind == "pose_decoder":
        from .imitation import PoseDecoder

        return PoseDecoder(
            mlp=_mlp_from_arrays(arrays, meta["activations"]),
            w_pos=float(meta["w_pos"]), scope=meta["scope"],
        )
    raise DataFormatError(f"unknown model kind {kind!r}", path=str(path))
