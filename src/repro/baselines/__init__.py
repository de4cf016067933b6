"""Baseline systems (Table 3's comparators), all on the shared simulator."""

from repro.baselines.collectives import ring_allreduce
from repro.baselines.distml import train_lr_distml
from repro.baselines.glint import train_lda_glint
from repro.baselines.mllib import train_lda_mllib, train_lr_mllib
from repro.baselines.petuum import train_lda_petuum, train_lr_petuum
from repro.baselines.pspushpull import train_lr_ps_pushpull

__all__ = [
    "ring_allreduce",
    "train_lr_distml",
    "train_lda_glint",
    "train_lda_mllib",
    "train_lr_mllib",
    "train_lda_petuum",
    "train_lr_petuum",
    "train_lr_ps_pushpull",
]
