"""Versioned single-file model serialization.

Layout: a magic header line, one JSON metadata line (kind, meta fields,
array names in order), then each array appended with np.save. Float64
arrays round-trip bit-exactly. LAYOUTS declares each kind's file once; a
file that does not match its kind raises DataFormatError naming the file.
"""

from __future__ import annotations

import json
import math
import os
import tokenize
import warnings
from functools import reduce

import numpy as np
from numpy.lib import format as npy

from .embedding import Encoder
from .errors import DataFormatError, ModelInvalidError
from .imitation import PoseDecoder
from .numerics import Layer, MlpParams
from .seqmodels.crf import LinearChainCrf
from .seqmodels.hmm import GaussianHmm
from .seqmodels.hsmm import Hsmm
from .seqmodels.knn import KnnModel
from .seqmodels.rnn import BiRnn, LstmCell

MAGIC = b"MSEGMODEL1\n"
MLP = None  # an MLP kind's arrays: w0, b0, w1, b1, ..., one pair per "activations" entry

# kind -> (class, {meta field: type}, {array name: attribute} in file order, or MLP).
# Attribute "fwd.w" is field w of the model's LstmCell fwd, the one kind of nested part.
LAYOUTS = {
    "encoder": (Encoder, {"activations": list, "trained": bool}, MLP),
    "hmm": (GaussianHmm, {}, {n: n for n in ("pi", "A", "means", "covs")}),
    "hsmm": (Hsmm, {"d_max": int}, {n: n for n in ("pi", "A", "means", "covs", "lambdas")}),
    "crf": (LinearChainCrf, {"trained": bool}, {n: n for n in ("projection", "unary", "transitions")}),
    "birnn": (BiRnn, {"stride": int}, {
        "fw": "fwd.w", "fu": "fwd.u", "fb": "fwd.b", "bw": "bwd.w", "bu": "bwd.u", "bb": "bwd.b",
        "w_out": "w_out", "b_out": "b_out"}),
    "knn": (KnnModel, {"k": int}, {"points": "train_points", "labels": "train_labels"}),
    "pose_decoder": (PoseDecoder, {"activations": list, "w_pos": float, "scope": str}, MLP),
}


def _write(path, kind: str, meta: dict, arrays: dict):
    names = list(arrays)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        header = json.dumps({"kind": kind, "meta": meta, "arrays": names}, sort_keys=True)
        fh.write(header.encode("utf-8") + b"\n")
        for name in names:
            np.save(fh, np.ascontiguousarray(arrays[name]), allow_pickle=False)


def _read(path):
    """(kind, meta, arrays) of a model file whose header matches its kind's layout."""
    def bad(message):
        return DataFormatError(message, path=str(path))

    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise bad("not a model file (bad magic)")
        try:
            header = json.loads(fh.readline().decode("utf-8"))
            kind, meta, names = header["kind"], header["meta"], header["arrays"]
        except (ValueError, KeyError, TypeError):  # not UTF-8 JSON, or no object with these keys
            raise bad("model header is not a JSON object with kind, meta and arrays") from None
        if not isinstance(kind, str) or kind not in LAYOUTS:
            raise bad(f"unknown model kind {kind!r}")
        _, types, attrs = LAYOUTS[kind]
        if not isinstance(meta, dict) or sorted(meta) != sorted(types):
            raise bad(f"{kind} meta must hold exactly {sorted(types)}, got {meta!r}")
        for field, typ in types.items():  # JSON's exact types, but an int passes as a float
            if type(meta[field]) not in {float: (int, float)}.get(typ, (typ,)):
                raise bad(f"{kind} meta {field!r} must be {typ.__name__}, got {meta[field]!r}")
        want = list(attrs) if attrs is not MLP else [
            f"{p}{i}" for i in range(len(meta["activations"])) for p in "wb"]
        if names != want:
            raise bad(f"{kind} arrays must be {want}, got {names!r}")
        size = os.fstat(fh.fileno()).st_size
        try:
            arrays = {name: _load_array(fh, size) for name in names}
        # truncated, or not .npy records; numpy's fallback parser for old .npy
        # headers raises TokenError on some damaged ones
        except (ValueError, EOFError, tokenize.TokenError, Warning) as exc:
            raise bad(f"{kind} arrays unreadable: {exc}") from None
    return kind, {field: typ(meta[field]) for field, typ in types.items()}, arrays


def _load_array(fh, size):
    """The .npy record at fh's position in a size-byte file. Its header must be
    a Python 3 literal and declare a numeric array that fits in the bytes left,
    so a damaged shape cannot ask for more memory than the file holds."""
    start = fh.tell()
    version = npy.read_magic(fh)
    if version not in ((1, 0), (2, 0)):
        raise ValueError(f"unsupported .npy version {version}")
    read_header = npy.read_array_header_1_0 if version == (1, 0) else npy.read_array_header_2_0
    with warnings.catch_warnings():  # numpy warns on a header it parses only as Python 2
        warnings.simplefilter("error")
        shape, _, dtype = read_header(fh)
    if dtype.kind not in "biuf":
        raise ValueError(f"array of dtype {dtype} is not numeric")
    if math.prod(shape) * dtype.itemsize > size - fh.tell():
        raise ValueError(f"array of shape {shape} runs past the end of the file")
    fh.seek(start)
    return np.load(fh, allow_pickle=False)


def save_model(model, path) -> None:
    kind = next((k for k, (cls, _, _) in LAYOUTS.items() if isinstance(model, cls)), None)
    if kind is None:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    _, types, attrs = LAYOUTS[kind]
    layers = model.mlp.layers if attrs is MLP else []
    meta = {f: getattr(model, f) if f != "activations" else [l.activation for l in layers] for f in types}
    if attrs is MLP:
        arrays = {f"{p}{i}": getattr(l, p) for i, l in enumerate(layers) for p in "wb"}
    else:
        arrays = {name: reduce(getattr, attr.split("."), model) for name, attr in attrs.items()}
    _write(path, kind, meta, arrays)


def load_model(path):
    """The model saved at path; a file its kind's class rejects raises DataFormatError
    (a non-positive-definite covariance raises ModelInvalidError)."""
    kind, kwargs, arrays = _read(path)
    cls, _, attrs = LAYOUTS[kind]
    try:
        if attrs is MLP:
            acts = enumerate(kwargs.pop("activations"))
            kwargs["mlp"] = MlpParams([Layer(arrays[f"w{i}"], arrays[f"b{i}"], a) for i, a in acts])
        for name, attr in (attrs or {}).items():  # "fwd.w" goes to kwargs["fwd"]["w"]
            head, _, field = attr.rpartition(".")
            (kwargs.setdefault(head, {}) if head else kwargs)[field] = arrays[name]
        return cls(**{k: LstmCell(**v) if isinstance(v, dict) else v for k, v in kwargs.items()})
    except ModelInvalidError:
        raise
    except (ValueError, IndexError, TypeError) as exc:  # the checks of the classes, on odd arrays
        raise DataFormatError(f"bad {kind} model: {exc}", path=str(path)) from None
