"""Synthetic datasets: generators, the Table-2 analogue catalog, libsvm IO."""

from repro.data.catalog import CATALOG, DatasetSpec, dataset, spec
from repro.data.graphs import (
    edge_pairs,
    node2vec_walks,
    preferential_attachment_graph,
    random_walks,
    skipgram_pairs,
)
from repro.data.libsvm import read_libsvm, write_libsvm
from repro.data.synth import dense_tabular, sparse_classification
from repro.data.text import synthetic_corpus

__all__ = [
    "CATALOG",
    "DatasetSpec",
    "dataset",
    "spec",
    "edge_pairs",
    "node2vec_walks",
    "preferential_attachment_graph",
    "random_walks",
    "skipgram_pairs",
    "read_libsvm",
    "write_libsvm",
    "dense_tabular",
    "sparse_classification",
    "synthetic_corpus",
]
