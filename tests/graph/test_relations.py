"""RelationMatrix: construction, statistics, slicing, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import RelationMatrix

TYPES = ["industry:tech", "industry:pharma", "wiki:supplier_of"]


def sample_matrix():
    return RelationMatrix(6, TYPES, [
        (0, 1, 0), (1, 2, 0), (0, 1, 2), (3, 4, 1), (4, 5, 1), (3, 5, 1),
    ])


class TestConstruction:
    def test_from_edges_symmetric(self):
        dense = sample_matrix().dense()
        assert np.array_equal(dense, dense.transpose(1, 0, 2))

    def test_triples_are_canonical(self):
        rel = RelationMatrix(4, TYPES, [(3, 1, 2), (0, 2, 1),
                                                   (1, 3, 2), (0, 2, 0)])
        assert rel.triples.tolist() == [[0, 2, 0], [0, 2, 1], [1, 3, 2]]
        assert rel.triples.dtype == np.int64
        assert not rel.triples.flags.writeable

    def test_empty(self):
        rel = RelationMatrix(4, TYPES)
        assert rel.edge_count() == 0
        assert rel.relation_ratio() == 0.0
        assert rel.triples.shape == (0, 3)
        assert rel.dense().shape == (4, 4, 3)

    def test_self_relation_rejected(self):
        with pytest.raises(ValueError):
            RelationMatrix(3, TYPES, [(1, 1, 0)])

    def test_reversed_pair_is_one_relation(self):
        forward = RelationMatrix(3, TYPES, [(0, 1, 0)])
        both = RelationMatrix(3, TYPES, [(1, 0, 0), (0, 1, 0)])
        assert both.triples.tolist() == forward.triples.tolist()
        assert both.cache_token() == forward.cache_token()

    def test_diagonal_rejected(self):
        with pytest.raises(ValueError, match="self-relations"):
            RelationMatrix(3, ["t"], np.array([[2, 2, 0]]))

    @pytest.mark.parametrize("pair", [(0, 3), (-1, 1)])
    def test_stock_index_out_of_range_rejected(self, pair):
        with pytest.raises(ValueError, match="stock index"):
            RelationMatrix(3, TYPES, [(*pair, 0)])

    def test_wrong_rank_rejected(self):
        with pytest.raises(ValueError, match="triples"):
            RelationMatrix(3, TYPES, np.zeros((2, 2), dtype=np.int64))

    def test_name_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="type index"):
            RelationMatrix(3, ["only-one"], [(0, 1, 1)])


class TestStatistics:
    def test_pair_vector_multi_hot(self):
        rel = sample_matrix()
        assert rel.pair_vector(0, 1).tolist() == [1.0, 0.0, 1.0]

    def test_binary_adjacency_no_diagonal(self):
        adj = sample_matrix().binary_adjacency()
        assert np.allclose(np.diag(adj), 0.0)
        assert adj[0, 1] == 1.0 and adj[0, 2] == 0.0

    def test_relation_ratio(self):
        rel = sample_matrix()
        # linked pairs: (0,1), (1,2), (3,4), (4,5), (3,5) = 5 of 15
        assert np.isclose(rel.relation_ratio(), 5 / 15)

    def test_edge_count(self):
        assert sample_matrix().edge_count() == 5

    def test_degree(self):
        rel = sample_matrix()
        assert rel.degree().tolist() == [1, 2, 1, 2, 2, 2]

    def test_type_usage(self):
        usage = sample_matrix().type_usage()
        assert usage["industry:tech"] == 2
        assert usage["industry:pharma"] == 3
        assert usage["wiki:supplier_of"] == 1


class TestSlicing:
    def test_select_prefix_wiki(self):
        wiki = sample_matrix().select_prefix("wiki:")
        assert wiki.num_types == 1
        assert wiki.edge_count() == 1

    def test_select_prefix_missing_raises(self):
        with pytest.raises(KeyError):
            sample_matrix().select_prefix("news:")

    def test_select_types_subset(self):
        sub = sample_matrix().select_types([0, 1])
        assert sub.type_names == ["industry:tech", "industry:pharma"]
        with pytest.raises(ValueError, match="repeated"):
            sample_matrix().select_types([0, 0])

    def test_merge_concatenates_types(self):
        a = sample_matrix().select_prefix("industry:")
        b = sample_matrix().select_prefix("wiki:")
        merged = a.merge(b)
        assert merged.num_types == 3
        assert merged.edge_count() == sample_matrix().edge_count()

    def test_merge_duplicate_types_rejected(self):
        rel = sample_matrix()
        with pytest.raises(ValueError, match="duplicate"):
            rel.merge(rel)

    def test_merge_size_mismatch_rejected(self):
        small = RelationMatrix(3, ["other:x"])
        with pytest.raises(ValueError):
            sample_matrix().merge(small)

    def test_subgraph_preserves_edges(self):
        sub = sample_matrix().subgraph([3, 4, 5])
        assert sub.num_stocks == 3
        assert sub.edge_count() == 3    # the pharma triangle

    def test_subgraph_of_disconnected_nodes(self):
        sub = sample_matrix().subgraph([0, 3])
        assert sub.edge_count() == 0

    def test_subgraph_permutation_matches_dense(self):
        rel = sample_matrix()
        perm = [5, 2, 0, 4, 1, 3]
        assert np.array_equal(rel.subgraph(perm).dense(),
                              rel.dense()[np.ix_(perm, perm)])

    def test_subgraph_rejects_repeated_stocks(self):
        with pytest.raises(ValueError, match="distinct"):
            sample_matrix().subgraph([1, 1])

    def test_slices_match_dense(self):
        rel = sample_matrix()
        dense = rel.dense()
        assert np.array_equal(rel.select_types([2, 0]).dense(),
                              dense[:, :, [2, 0]])
        industry, wiki = rel.select_prefix("industry:"), \
            rel.select_prefix("wiki:")
        assert np.array_equal(industry.merge(wiki).dense(), dense)
        assert np.array_equal(rel.type_counts(), dense.sum(axis=-1))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=8),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_random_matrices_keep_invariants(n, k, seed):
    """Any randomly built relation matrix keeps symmetry + ratio bounds."""
    rng = np.random.default_rng(seed)
    names = [f"t{i}" for i in range(k)]
    edges = []
    for _ in range(rng.integers(0, 2 * n)):
        i, j = rng.integers(0, n, 2)
        if i != j:
            edges.append((int(i), int(j), int(rng.integers(0, k))))
    rel = RelationMatrix(n, names, edges)
    assert 0.0 <= rel.relation_ratio() <= 1.0
    dense = rel.dense()
    assert np.array_equal(dense, dense.transpose(1, 0, 2))
    assert rel.edge_count() <= n * (n - 1) // 2
    # binary adjacency from multi-hot sums matches pair vectors
    adj = rel.binary_adjacency()
    for i in range(n):
        for j in range(n):
            assert (adj[i, j] > 0) == (rel.pair_vector(i, j).sum() > 0)
