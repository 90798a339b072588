"""Per-frame segment inference models: KNN, HMM, HSMM, linear-chain CRF, BiLSTM."""

from .crf import LinearChainCrf, crf_log_partition, crf_marginals, crf_train, crf_viterbi
from .hmm import GaussianHmm, hmm_em_fit, hmm_forward_backward, hmm_viterbi
from .hsmm import Hsmm, hsmm_em_fit, hsmm_loglik, hsmm_viterbi
from .knn import KnnModel, knn_predict, knn_predict_batch
from .rnn import BiRnn, rnn_predict, rnn_predict_sequence, rnn_train

__all__ = [
    "BiRnn",
    "GaussianHmm",
    "Hsmm",
    "KnnModel",
    "LinearChainCrf",
    "crf_log_partition",
    "crf_marginals",
    "crf_train",
    "crf_viterbi",
    "hmm_em_fit",
    "hmm_forward_backward",
    "hmm_viterbi",
    "hsmm_em_fit",
    "hsmm_loglik",
    "hsmm_viterbi",
    "knn_predict",
    "knn_predict_batch",
    "rnn_predict",
    "rnn_predict_sequence",
    "rnn_train",
]
