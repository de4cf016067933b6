"""The algorithm-support matrix of Table 3.

Each entry records whether a system (as reproduced here) implements a
workload, mirroring the paper's check marks exactly.
"""

from __future__ import annotations

WORKLOADS = ("LR", "DeepWalk", "GBDT", "LDA")

#: Paper Table 3, verbatim.
SUPPORT_MATRIX = {
    "Spark MLlib": {"LR": True, "DeepWalk": False, "GBDT": True, "LDA": True},
    "DistML": {"LR": True, "DeepWalk": False, "GBDT": False, "LDA": True},
    "Glint": {"LR": False, "DeepWalk": False, "GBDT": False, "LDA": True},
    "Petuum": {"LR": True, "DeepWalk": False, "GBDT": False, "LDA": True},
    "XGboost": {"LR": False, "DeepWalk": False, "GBDT": True, "LDA": False},
    "PS2": {"LR": True, "DeepWalk": True, "GBDT": True, "LDA": True},
}

#: Which reproduced trainer backs each supported (system, workload) cell.
TRAINER_INDEX = {
    ("Spark MLlib", "LR"): "repro.baselines.mllib.train_lr_mllib",
    ("Spark MLlib", "GBDT"): "repro.ml.gbdt.train_gbdt (method='driver')",
    ("Spark MLlib", "LDA"): "repro.baselines.mllib.train_lda_mllib",
    ("DistML", "LR"): "repro.baselines.distml.train_lr_distml",
    ("DistML", "LDA"): "repro.ml.lda.train_lda (comm='petuum')",
    ("Glint", "LDA"): "repro.baselines.glint.train_lda_glint",
    ("Petuum", "LR"): "repro.baselines.petuum.train_lr_petuum",
    ("Petuum", "LDA"): "repro.baselines.petuum.train_lda_petuum",
    ("XGboost", "GBDT"): "repro.ml.gbdt.train_gbdt (method='allreduce')",
    ("PS2", "LR"): "repro.ml.lr.train_logistic_regression",
    ("PS2", "DeepWalk"): "repro.ml.deepwalk.train_deepwalk",
    ("PS2", "GBDT"): "repro.ml.gbdt.train_gbdt",
    ("PS2", "LDA"): "repro.ml.lda.train_lda",
}


def support_rows():
    """The Table-3 rows as ``(system, {workload: bool})`` pairs."""
    return list(SUPPORT_MATRIX.items())
