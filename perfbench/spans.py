"""In-memory span tracer for the traced benchmark run.

The tracer wraps public motionseg functions at the module attributes their
callers look them up by (``motionseg.pipeline.rnn_train`` is what
``train_sequence_model`` calls, so that is the name that gets wrapped). Each
call records one span ``[name, start, end, parent]`` in a list; nothing is
written until the run ends. Functions called more than about 1e5 times per
run (``hmm.logsumexp``, the LSTM cell math) are deliberately not wrapped.

The span name's first dotted part is the layer: ``data``, ``embedding``,
``numerics``, ``knn``, ``hmm``, ``hsmm``, ``crf``, ``rnn``, ``pipeline``,
``imitation``, ``modelio``, plus ``experiments`` and the benchmark's own
``bench`` glue.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _decoder_count(args, kwargs, result):
    return {"imitation.decoders": len(result) if isinstance(result, dict) else 1}


def _rnn_windows(args, kwargs, result):
    rnn = _arg(args, kwargs, 0, "rnn")
    frames = len(_arg(args, kwargs, 1, "X"))
    return {"rnn.predict_windows": math.ceil(frames / rnn.stride)}


# (span name, "module:attribute", counter) -- a counter maps
# (args, kwargs, result) to {count name: increment}.
TRACE_POINTS = (
    ("data.generate", "motionseg.data:generate_synthetic", None),
    ("data.save", "motionseg.data:save_dataset", None),
    ("data.load", "motionseg.data:load_dataset",
     lambda a, k, r: {"data.frames": r.num_frames}),
    ("data.split", "motionseg.data:split_leave_one_out", None),
    ("data.split", "motionseg.pipeline:split_leave_one_out", None),
    ("data.split", "motionseg.pipeline:mask_labels", None),
    ("data.split", "motionseg.experiments:split_leave_one_out", None),
    ("embedding.train", "motionseg.pipeline:train_embedding",
     lambda a, k, r: {"embedding.steps": len(r[1])}),
    ("embedding.sampler", "motionseg.embedding:sample_triplets_supervised", None),
    ("embedding.encode", "motionseg.embedding:encode_array",
     lambda a, k, r: {"embedding.encode_frames": len(r)}),
    ("embedding.encode", "motionseg.pipeline:encode_array",
     lambda a, k, r: {"embedding.encode_frames": len(r)}),
    ("embedding.encode", "motionseg.imitation:encode_array",
     lambda a, k, r: {"embedding.encode_frames": len(r)}),
    ("numerics.mlp_forward", "motionseg.embedding:mlp_forward", None),
    ("numerics.mlp_forward", "motionseg.imitation:mlp_forward", None),
    ("numerics.mlp_backward", "motionseg.embedding:mlp_backward", None),
    ("numerics.mlp_backward", "motionseg.imitation:mlp_backward", None),
    ("numerics.optimizer_step", "motionseg.numerics:optimizer_step", None),
    ("knn.predict", "motionseg.pipeline:knn_predict_batch",
     lambda a, k, r: {"knn.queries": len(r[0])}),
    ("hmm.fit", "motionseg.pipeline:hmm_em_fit",
     lambda a, k, r: {"hmm.em_iterations": len(r[1]) - 1}),
    ("hmm.predict", "motionseg.pipeline:hmm_forward_backward", None),
    ("hmm.predict", "motionseg.pipeline:hmm_viterbi", None),
    ("hsmm.fit", "motionseg.pipeline:hsmm_em_fit", None),
    ("hsmm.posteriors", "motionseg.seqmodels.hsmm:hsmm_posteriors", None),
    ("hsmm.predict", "motionseg.pipeline:hsmm_posteriors", None),
    ("hsmm.predict", "motionseg.pipeline:hsmm_viterbi", None),
    ("crf.fit", "motionseg.pipeline:crf_train",
     lambda a, k, r: {"crf.accepted_steps": len(r[1]) - 1}),
    ("crf.loglik_grad", "motionseg.seqmodels.crf:crf_loglik_and_grad", None),
    ("crf.predict", "motionseg.pipeline:crf_viterbi", None),
    ("crf.predict", "motionseg.pipeline:crf_marginals", None),
    ("rnn.train", "motionseg.pipeline:rnn_train",
     lambda a, k, r: {"rnn.batches": len(r[1])}),
    ("rnn.lstm_forward", "motionseg.seqmodels.rnn:lstm_forward", None),
    ("rnn.lstm_backward", "motionseg.seqmodels.rnn:lstm_backward", None),
    ("rnn.predict", "motionseg.pipeline:rnn_predict_sequence", _rnn_windows),
    ("pipeline.run_alternation", "motionseg.pipeline:run_alternation",
     lambda a, k, r: {"pipeline.rounds": len(r[2])}),
    ("pipeline.pretrain", "motionseg.pipeline:pretrain_encoder", None),
    ("pipeline.fit", "motionseg.pipeline:train_sequence_model", None),
    ("pipeline.eval", "motionseg.pipeline:evaluate_segmentation", None),
    ("pipeline.predict", "motionseg.pipeline:predict_frames", None),
    ("pipeline.pseudo_label", "motionseg.pipeline:infer_pseudo_labels", None),
    ("pipeline.pseudo_label", "motionseg.pipeline:select_top_k",
     lambda a, k, r: {"pipeline.pseudo_kept": len(r)}),
    ("experiments.pose_table", "motionseg.experiments:pose_table", None),
    ("imitation.decoder_train", "motionseg.experiments:train_pose_decoder", _decoder_count),
    ("imitation.eval", "motionseg.experiments:eval_pose", None),
    ("imitation.decode", "motionseg.imitation:decode_pose", None),
    ("modelio.save", "motionseg.modelio:save_model",
     lambda a, k, r: {"modelio.bytes": os.path.getsize(_arg(a, k, 1, "path"))}),
    ("modelio.load", "motionseg.modelio:load_model", None),
)


class Tracer:
    """Spans and counts of one traced phase, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return self.spans[idx]

    @contextmanager
    def span(self, name):
        rec = self._open(name)
        rec[1] = perf_counter()
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
            if counter is not None:
                for key, n in counter(args, kwargs, result).items():
                    self.counts[key] += n
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every trace point for the duration of the block."""
        patched = []
        try:
            for name, target, counter in TRACE_POINTS:
                module_name, attr = target.split(":")
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                setattr(module, attr, self._wrap(name, original, counter))
                patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def summary(self) -> dict:
        """{span name: {"calls", "total_s", "self_s"}}; self excludes child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def call_counts(self) -> dict:
        """Everything that should repeat exactly at a fixed seed."""
        out = {name: row["calls"] for name, row in self.summary().items()}
        out.update(self.counts)
        return out
