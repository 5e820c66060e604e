"""The graph value type and the clique predicate."""

import re
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chaincliq import Graph, MAX_VERTICES, edge_difference, is_clique, is_subgraph, make_graph

from strategies import vertex_subsets


def clique_edge_set(n, members):
    """All pairs inside a vertex subset, built without the bitmask machinery."""
    members = sorted(members)
    pairs = [(u, v) for i, u in enumerate(members) for v in members[i + 1 :]]
    return Graph(n, make_graph(n, pairs).mask)


def is_clique_by_enumeration(s):
    """Independent oracle: compare the edge set against all pairs of its span."""
    span = sorted({x for e in s.edges for x in e})
    expected = {(u, v) for i, u in enumerate(span) for v in span[i + 1 :]}
    return frozenset(span) if set(s.edges) == expected else None


class TestMakeGraph:
    def test_normalizes_orientation(self):
        g = make_graph(3, [(2, 1), (2, 3)])
        assert g.n == 3
        assert g.edges == {(1, 2), (2, 3)}

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            make_graph(3, [(1, 1)])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ValueError, match="outside"):
            make_graph(2, [(1, 3)])

    def test_rejects_duplicate_after_normalization(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_graph(3, [(1, 2), (2, 1)])

    @pytest.mark.parametrize("item", [1, (1, 2, 3), (1,), None])
    def test_edge_must_be_a_pair(self, item):
        with pytest.raises(ValueError, match=rf"edge {re.escape(repr(item))} must be a pair"):
            make_graph(3, [item])

    def test_rejects_non_integer_endpoint(self):
        with pytest.raises(ValueError, match=r"edge \(1, 2\.0\) must have integer endpoints"):
            make_graph(3, [(1, 2.0)])

    def test_rejects_bad_vertex_count(self):
        with pytest.raises(ValueError, match="positive integer"):
            make_graph(0, [])
        with pytest.raises(ValueError, match="maximum"):
            make_graph(MAX_VERTICES + 1, [])

    def test_mask_bound_enforced(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, 1 << comb(3, 2))

    @pytest.mark.parametrize("mask", [True, False, 1.0, None])
    def test_mask_must_be_an_int(self, mask):
        with pytest.raises(ValueError, match="edge mask"):
            Graph(2, mask)


class TestEdgeDifference:
    def test_single_edge_difference(self):
        sup = make_graph(3, [(1, 2), (1, 3)])
        sub = make_graph(3, [(1, 2)])
        assert edge_difference(sup, sub).edges == {(1, 3)}

    def test_identity_difference_is_empty(self):
        g = make_graph(3, [(1, 2)])
        assert edge_difference(g, g).edges == frozenset()

    def test_rejects_non_subgraph(self):
        with pytest.raises(ValueError, match="not a subgraph"):
            edge_difference(make_graph(3, [(1, 2)]), make_graph(3, [(1, 3)]))

    def test_rejects_mismatched_n(self):
        with pytest.raises(ValueError, match="mismatched"):
            edge_difference(make_graph(3, []), make_graph(4, []))


class TestIsSubgraph:
    def test_empty_graph_is_subgraph_of_anything(self):
        assert is_subgraph(make_graph(3, []), make_graph(3, [(1, 2), (2, 3)]))

    def test_reflexive(self):
        g = make_graph(3, [(1, 3)])
        assert is_subgraph(g, g)

    def test_incomparable(self):
        assert not is_subgraph(make_graph(3, [(1, 2)]), make_graph(3, [(1, 3)]))

    def test_rejects_mismatched_n(self):
        with pytest.raises(ValueError, match="mismatched"):
            is_subgraph(make_graph(3, []), make_graph(4, []))


class TestIsClique:
    def test_triangle(self):
        s = Graph(3, make_graph(3, [(1, 2), (1, 3), (2, 3)]).mask)
        assert is_clique(s) == {1, 2, 3}

    def test_missing_pair_is_not_clique(self):
        s = Graph(3, make_graph(3, [(1, 3), (2, 3)]).mask)
        assert is_clique(s) is None

    def test_single_edge_is_k2(self):
        s = Graph(3, make_graph(3, [(1, 2)]).mask)
        assert is_clique(s) == {1, 2}

    def test_empty_set_is_vacuous_clique(self):
        assert is_clique(Graph(3, 0)) == frozenset()

    @given(st.integers(min_value=2, max_value=8), st.data())
    def test_matches_direct_enumeration(self, n, data):
        mask = data.draw(st.integers(min_value=0, max_value=(1 << comb(n, 2)) - 1))
        s = Graph(n, mask)
        assert is_clique(s) == is_clique_by_enumeration(s)

    @given(st.data())
    def test_overlapping_cliques_intersect_to_a_clique(self, data):
        n = 8
        a = data.draw(vertex_subsets(n), label="a")
        b = data.draw(vertex_subsets(n), label="b")
        c1, c2 = clique_edge_set(n, a), clique_edge_set(n, b)
        inter = Graph(n, c1.mask & c2.mask)
        if inter.mask:
            assert is_clique(inter) is not None

    @given(st.data())
    def test_disjoint_clique_union_is_never_a_clique(self, data):
        n = 10
        a = data.draw(vertex_subsets(n), label="a")
        b = data.draw(vertex_subsets(n), label="b")
        c1, c2 = clique_edge_set(n, a), clique_edge_set(n, b)
        if c1.mask & c2.mask or not c1.mask or not c2.mask:
            return
        assert is_clique(Graph(n, c1.mask | c2.mask)) is None


@given(st.integers(min_value=2, max_value=7), st.data())
def test_difference_and_sub_partition_the_super(n, data):
    full = (1 << comb(n, 2)) - 1
    sup_mask = data.draw(st.integers(min_value=0, max_value=full))
    sub_mask = sup_mask & data.draw(st.integers(min_value=0, max_value=full))
    sup, sub = Graph(n, sup_mask), Graph(n, sub_mask)
    diff = edge_difference(sup, sub)
    assert diff == Graph(n, sup_mask & ~sub_mask)
    assert diff.mask & sub.mask == 0
    assert diff.mask | sub.mask == sup.mask
