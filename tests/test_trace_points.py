"""Every name the benchmark's span tracer wraps must still exist, and
prediction must still go through the names its `<kind>.predict` spans wrap.

The benchmark's smoke test is not part of this suite, so a rename or
deletion of a traced function would otherwise surface only when the
benchmark runs.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from motionseg import pipeline
from motionseg.seqmodels.crf import new_crf
from motionseg.seqmodels.hmm import GaussianHmm
from motionseg.seqmodels.hsmm import Hsmm
from motionseg.seqmodels.knn import KnnModel
from motionseg.seqmodels.rnn import new_birnn

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _trace_points():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACE_POINTS


@pytest.mark.parametrize("target", sorted({t for _, t, _ in _trace_points()}))
def test_trace_point_resolves_to_a_callable(target):
    module_name, _, attr = target.partition(":")
    assert callable(getattr(importlib.import_module(module_name), attr, None)), target


def _predict_points():
    """kind -> the pipeline functions that the benchmark's `<kind>.predict` spans wrap."""
    points = {}
    for span, target, _ in _trace_points():
        kind, _, stage = span.partition(".")
        module_name, _, attr = target.partition(":")
        if stage == "predict" and module_name == "motionseg.pipeline" and kind in pipeline.SEQ_MODELS:
            points.setdefault(kind, []).append(attr)
    return points


def _bundle(kind):
    means, covs = [[0.0, 0.0], [1.0, 1.0]], np.stack([np.eye(2)] * 2)
    model = {
        "knn": lambda: KnnModel(np.arange(12.0).reshape(6, 2), np.array([1, 2, 3] * 2), k=2),
        "hmm": lambda: GaussianHmm(pi=[0.5, 0.5], A=[[0.9, 0.1], [0.2, 0.8]], means=means, covs=covs),
        "hsmm": lambda: Hsmm(pi=[0.5, 0.5], A=[[0.0, 1.0], [1.0, 0.0]], means=means, covs=covs,
                             lambdas=[2.0, 3.0], d_max=4),
        "crf": lambda: new_crf(3, 2, num_basis=4, seed=0),
        "rnn": lambda: new_birnn(input_dim=2, num_labels=3, hidden=3, stride=4, seed=0),
    }[kind]()
    return pipeline.SegmenterBundle(kind, model, state_map=np.array([1, 3]))


@pytest.mark.parametrize("kind", pipeline.SEQ_MODELS)
def test_predict_frames_calls_each_traced_predict_function_once(kind, monkeypatch):
    # a one-pass decode that bypassed these names would read 0 in the benchmark's
    # hmm.predict, hsmm.predict and crf.predict spans
    points = _predict_points()
    assert len(points["hmm"]) == len(points["hsmm"]) == len(points["crf"]) == 2
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in sum(points.values(), []):
        monkeypatch.setattr(pipeline, name, counted(name, getattr(pipeline, name)))
    embedded = np.random.default_rng(0).normal(size=(7, 2))
    pipeline.predict_frames(_bundle(kind), embedded)
    assert calls == Counter(points[kind])
