"""Data-generator tests: shapes, determinism, catalog, libsvm round trip."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError, ReproError
from repro.data import (
    CATALOG,
    dataset,
    dense_tabular,
    preferential_attachment_graph,
    random_walks,
    skipgram_pairs,
    sparse_classification,
    spec,
    synthetic_corpus,
)
from repro.data.libsvm import dumps_row, loads_row, read_libsvm, write_libsvm
from repro.linalg.sparse import SparseRow


def test_sparse_classification_shapes():
    rows, true_w = sparse_classification(50, 200, 8, seed=1)
    assert len(rows) == 50
    assert true_w.shape == (200,)
    for row in rows:
        assert row.nnz <= 8
        assert row.indices.max() < 200
        assert row.label in (0.0, 1.0)
        assert np.all(np.diff(row.indices) > 0)  # sorted unique


def test_sparse_classification_deterministic():
    a, _ = sparse_classification(20, 100, 5, seed=7)
    b, _ = sparse_classification(20, 100, 5, seed=7)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.indices, rb.indices)
        assert np.array_equal(ra.values, rb.values)
        assert ra.label == rb.label


def test_sparse_classification_seed_changes_data():
    a, _ = sparse_classification(20, 100, 5, seed=7)
    b, _ = sparse_classification(20, 100, 5, seed=8)
    assert any(
        not np.array_equal(ra.indices, rb.indices) for ra, rb in zip(a, b)
    )


def test_sparse_classification_rejects_impossible_nnz():
    with pytest.raises(ConfigError):
        sparse_classification(10, 5, 6)


def test_sparse_classification_is_learnable():
    rows, true_w = sparse_classification(300, 100, 10, seed=2, noise=0.0)
    correct = sum(
        (row.dot_dense(true_w) > 0) == (row.label > 0.5) for row in rows
    )
    assert correct / len(rows) > 0.7


def test_dense_tabular_shapes_and_labels():
    X, y = dense_tabular(40, 6, seed=3)
    assert X.shape == (40, 6)
    assert y.shape == (40,)
    assert set(np.unique(y)) <= {0.0, 1.0}


def test_dense_tabular_deterministic():
    a = dense_tabular(20, 4, seed=5)
    b = dense_tabular(20, 4, seed=5)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


# -- graphs --------------------------------------------------------------------

def test_graph_is_symmetric_and_connected_enough():
    adjacency = preferential_attachment_graph(50, out_degree=3, seed=4)
    assert len(adjacency) == 50
    for u, neighbors in enumerate(adjacency):
        for v in neighbors:
            assert u in adjacency[int(v)]
        assert u not in neighbors  # no self loops
        assert neighbors.size >= 1


def test_graph_rejects_tiny():
    with pytest.raises(ConfigError):
        preferential_attachment_graph(1)


def test_graph_degree_skew():
    adjacency = preferential_attachment_graph(300, out_degree=3, seed=4)
    degrees = np.array([adj.size for adj in adjacency])
    assert degrees.max() > 4 * np.median(degrees)


def test_random_walks_shape_and_validity():
    adjacency = preferential_attachment_graph(30, seed=6)
    walks = random_walks(adjacency, 45, walk_length=8, seed=6)
    assert len(walks) == 45
    for walk in walks:
        assert walk.size == 8
        for a, b in zip(walk, walk[1:]):
            assert int(b) in adjacency[int(a)]


def test_walks_start_vertices_cycle():
    adjacency = preferential_attachment_graph(10, seed=6)
    walks = random_walks(adjacency, 20, seed=6)
    starts = [int(w[0]) for w in walks]
    assert starts == [i % 10 for i in range(20)]


def test_skipgram_pairs_window():
    walks = [np.array([1, 2, 3, 4])]
    pairs = skipgram_pairs(walks, window=1)
    assert (1, 2) in pairs and (2, 1) in pairs
    assert (1, 3) not in pairs
    # Each interior vertex has 2 neighbors, ends have 1: total 6 pairs.
    assert len(pairs) == 6


def test_skipgram_pairs_no_self_pairs():
    walks = [np.array([5, 5, 5])]
    pairs = skipgram_pairs(walks, window=2)
    assert all(u != v or True for u, v in pairs)  # same ids allowed,
    # but a token never pairs with its own position:
    assert len(pairs) == 6


# -- corpora ---------------------------------------------------------------------

def test_corpus_shapes():
    docs, topic_word = synthetic_corpus(25, 80, n_topics=4, doc_length=15,
                                        seed=8)
    assert len(docs) == 25
    assert topic_word.shape == (4, 80)
    assert np.allclose(topic_word.sum(axis=1), 1.0)
    for doc in docs:
        assert doc.size == 15
        assert doc.max() < 80


# -- catalog ----------------------------------------------------------------------

def test_catalog_has_all_paper_datasets():
    assert set(CATALOG) == {
        "kddb", "kdd12", "ctr", "pubmed", "app", "gender", "graph1", "graph2",
    }


def test_catalog_specs_carry_paper_stats():
    assert spec("kddb").paper_stats["cols"] == "29M"
    assert spec("graph2").paper_stats["vertices"] == "115M"


@pytest.mark.parametrize("name", ["kddb", "pubmed", "gender", "graph1"])
def test_catalog_generates(name):
    data = dataset(name, seed=0)
    if name == "graph1":
        adjacency, walks = data
        assert len(walks) > 0
    else:
        assert len(data) > 0


def test_catalog_lr_aspect_ratio():
    params = spec("ctr").params
    # CTR is the widest dataset: more features than any other analogue.
    assert params["dim"] > spec("kddb").params["dim"]
    assert params["nnz_per_row"] > spec("kddb").params["nnz_per_row"]


def test_catalog_unknown_model():
    from repro.data.catalog import DatasetSpec

    with pytest.raises(ValueError):
        DatasetSpec(name="x", model="quantum").generate()


# -- libsvm -----------------------------------------------------------------------

def test_libsvm_round_trip_file(tmp_path):
    rows, _ = sparse_classification(15, 60, 6, seed=9)
    path = tmp_path / "data.libsvm"
    write_libsvm(path, rows)
    back = read_libsvm(path)
    assert len(back) == 15
    for a, b in zip(rows, back):
        assert np.array_equal(a.indices, b.indices)
        assert np.allclose(a.values, b.values)
        assert a.label == b.label


def test_libsvm_parse_errors():
    with pytest.raises(ReproError):
        loads_row("")
    with pytest.raises(ReproError):
        loads_row("1 notafield")


def test_libsvm_one_based_indices():
    row = loads_row("1 1:0.5 3:2.0")
    assert row.indices.tolist() == [0, 2]


@given(st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=99),
        st.floats(min_value=-100, max_value=100, allow_nan=False, width=32),
    ),
    min_size=1, max_size=10,
    unique_by=lambda t: t[0],
), st.sampled_from([0.0, 1.0]))
@settings(max_examples=50, deadline=None)
def test_libsvm_string_round_trip_property(entries, label):
    entries.sort()
    indices = np.array([e[0] for e in entries], dtype=np.int64)
    values = np.array([e[1] for e in entries])
    row = SparseRow(indices, values, label)
    back = loads_row(dumps_row(row))
    assert np.array_equal(back.indices, row.indices)
    assert np.allclose(back.values, row.values, rtol=1e-4)
    assert back.label == row.label
