"""ML workloads on PS2: LR, SVM, DeepWalk, GBDT, LDA + server-side optim."""

from repro.ml.fm import FMModel, train_fm
from repro.ml.deepwalk import (
    build_embeddings,
    embedding_matrix,
    train_deepwalk,
    train_embedding_pairs,
)
from repro.ml.line import train_line
from repro.ml.gbdt import GBDTModel, train_gbdt
from repro.ml.lda import train_lda
from repro.ml.linear import serve_linear_ps2, train_linear_ps2
from repro.ml.lr import accuracy, train_logistic_regression
from repro.ml.results import TrainResult, speedup
from repro.ml.svm import train_svm

__all__ = [
    "FMModel",
    "train_fm",
    "build_embeddings",
    "embedding_matrix",
    "train_deepwalk",
    "train_embedding_pairs",
    "train_line",
    "GBDTModel",
    "train_gbdt",
    "train_lda",
    "serve_linear_ps2",
    "train_linear_ps2",
    "accuracy",
    "train_logistic_regression",
    "TrainResult",
    "speedup",
    "train_svm",
]
