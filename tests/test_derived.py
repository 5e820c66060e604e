"""Difference-graph construction and the two structural verifiers."""

import json
import re
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chaincliq import (
    GraphChain,
    SINGLE_STEP,
    StepDistribution,
    best_witness,
    build_difference_graph,
    check_independent,
    difference_graph_from_edges,
    edge_difference,
    enumerate_chains,
    find_triangle,
    is_clique,
    make_graph,
    max_independent_set,
    neighbor_counts,
    random_chain,
    read_difference_graph,
    reverse_chain,
    verify_lemma_123,
    verify_lemma_abcd,
    write_difference_graph,
)
from chaincliq.graphs import _clique_support_mask

from strategies import chains


def difference_edges_by_definition(chain):
    """Oracle: test every index pair directly against the clique predicate."""
    out = set()
    for j in range(chain.r):
        for i in range(j):
            if is_clique(edge_difference(chain.graphs[j], chain.graphs[i])) is not None:
                out.add((i + 1, j + 1))
    return out


def pairwise_adjacency(n, masks):
    """Reference build: the clique test on the edge-mask difference of every index pair."""
    r = len(masks)
    adj = [0] * r
    for j in range(1, r):
        for i in range(j):
            if _clique_support_mask(n, masks[j] & ~masks[i]) is not None:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def assert_matches_pairwise_scan(chain):
    expected = pairwise_adjacency(chain.n, [g.mask for g in chain.graphs])
    assert list(build_difference_graph(chain).adj) == expected


def abcd_by_walk(dg):
    """Oracle: walk every a < b < c in order and name the first violating (a, b, c, d)."""
    adj, r = dg.adj, dg.r
    for a0 in range(r):
        for b0 in range(a0 + 1, r):
            for c0 in range(b0 + 1, r):
                if not adj[a0] >> c0 & 1 or adj[b0] >> c0 & 1:
                    continue
                upper = adj[b0] >> (c0 + 1)
                if upper:
                    d0 = c0 + 1 + (upper & -upper).bit_length() - 1
                    return (a0 + 1, b0 + 1, c0 + 1, d0 + 1)
    return None


@st.composite
def adjacencies(draw, max_r=16):
    """Arbitrary graphs on up to max_r indices, most of which no chain produces."""
    r = draw(st.integers(min_value=1, max_value=max_r))
    pairs = [(i, j) for i in range(1, r + 1) for j in range(i + 1, r + 1)]
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    return difference_graph_from_edges(r, [p for b, p in enumerate(pairs) if mask >> b & 1])


def path_example():
    """Three-step chain whose difference graph is the path 1-2-3."""
    return GraphChain(
        3,
        (
            make_graph(3, [(1, 2)]),
            make_graph(3, [(1, 2), (1, 3)]),
            make_graph(3, [(1, 2), (1, 3), (2, 3)]),
        ),
    )


class TestBuildDifferenceGraph:
    def test_path_example(self):
        chain = path_example()
        dg = build_difference_graph(chain)
        assert set(dg.edge_pairs()) == {(1, 2), (2, 3)}
        assert difference_edges_by_definition(chain) == {(1, 2), (2, 3)}

    def test_two_step_chain_gives_one_edge(self):
        chain = GraphChain(2, (make_graph(2, []), make_graph(2, [(1, 2)])))
        assert build_difference_graph(chain).edge_pairs() == ((1, 2),)

    def test_length_one_chain_is_edgeless(self):
        chain = GraphChain(3, (make_graph(3, [(1, 2)]),))
        dg = build_difference_graph(chain)
        assert dg.r == 1 and dg.edge_pairs() == ()

    @given(chains())
    def test_matches_definitional_scan(self, chain):
        dg = build_difference_graph(chain)
        assert set(dg.edge_pairs()) == difference_edges_by_definition(chain)

    def test_matches_pairwise_scan_on_every_chain_up_to_four_vertices(self):
        checked = 0
        for n in range(1, 5):
            for r in range(1, comb(n, 2) + 2):
                for chain in enumerate_chains(n, r):
                    assert_matches_pairwise_scan(chain)
                    checked += 1
        assert checked == 18786

    @pytest.mark.parametrize("dist", [SINGLE_STEP, StepDistribution("geometric", 0.5)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_pairwise_scan_on_long_chains(self, dist, seed):
        assert_matches_pairwise_scan(random_chain(64, 300, dist, seed))

    def test_top_of_range(self):
        # r = C(64, 2) + 1: every single-step difference is one edge, a 2-clique
        dg = build_difference_graph(random_chain(64, 2017, SINGLE_STEP, 5))
        assert all(dg.adj[i] >> (i + 1) & 1 for i in range(dg.r - 1))
        assert find_triangle(dg) is None
        assert verify_lemma_abcd(dg) is None
        assert verify_lemma_123(dg) is None
        # consecutive indices form a path, so alpha is at most ceil(2017 / 2)
        report = max_independent_set(dg)
        assert check_independent(dg, report.optimum)
        assert len(report.optimum) == report.alpha
        assert len(best_witness(dg).indices) <= report.alpha <= 1009


class TestNeighborCounts:
    def test_path_counts(self):
        dg = build_difference_graph(path_example())
        assert neighbor_counts(dg, 2) == (1, 1)
        assert neighbor_counts(dg, 1) == (0, 1)
        assert neighbor_counts(dg, 3) == (1, 0)

    def test_singleton_counts(self):
        dg = difference_graph_from_edges(1, [])
        assert neighbor_counts(dg, 1) == (0, 0)

    def test_rejects_out_of_range_index(self):
        dg = build_difference_graph(path_example())
        with pytest.raises(ValueError, match="out of range"):
            neighbor_counts(dg, 4)

    @given(chains())
    def test_counts_sum_to_degree(self, chain):
        dg = build_difference_graph(chain)
        for i in range(1, dg.r + 1):
            left, right = neighbor_counts(dg, i)
            assert left + right == dg.degree(i)


class TestLemmaAbcd:
    @given(chains())
    def test_absent_on_chain_built_graphs(self, chain):
        assert verify_lemma_abcd(build_difference_graph(chain)) is None

    def test_crafted_violation_found_first(self):
        dg = difference_graph_from_edges(4, [(1, 3), (2, 4)])
        violation = verify_lemma_abcd(dg)
        assert violation is not None
        assert violation.kind == "abcd" and violation.indices == (1, 2, 3, 4)

    def test_vacuous_below_four_indices(self):
        assert verify_lemma_abcd(difference_graph_from_edges(3, [(1, 2), (1, 3), (2, 3)])) is None

    @given(adjacencies())
    def test_matches_quartic_walk(self, dg):
        violation = verify_lemma_abcd(dg)
        assert (None if violation is None else violation.indices) == abcd_by_walk(dg)

    def test_exhaustive_against_quartic_walk_up_to_six_indices(self):
        for r in range(1, 7):
            pairs = [(i, j) for i in range(1, r + 1) for j in range(i + 1, r + 1)]
            for mask in range(1 << len(pairs)):
                dg = difference_graph_from_edges(r, [pairs[b] for b in range(len(pairs)) if mask >> b & 1])
                violation = verify_lemma_abcd(dg)
                assert (None if violation is None else violation.indices) == abcd_by_walk(dg)

    def test_no_size_limit(self):
        chain = random_chain(30, 250, SINGLE_STEP, 11)
        assert verify_lemma_abcd(build_difference_graph(chain)) is None
        dg = difference_graph_from_edges(700, [(1, 699), (2, 700)])
        assert verify_lemma_abcd(dg).indices == (1, 2, 699, 700)

    def test_reports_lexicographically_first_tuple(self):
        # both (1, 3, 4, 5) and (2, 3, 4, 5) violate; the scan must name the first
        dg = difference_graph_from_edges(5, [(1, 4), (2, 4), (3, 5)])
        violation = verify_lemma_abcd(dg)
        assert violation is not None and violation.indices == (1, 3, 4, 5)


class TestLemma123:
    @given(chains())
    def test_absent_on_chain_built_graphs(self, chain):
        assert verify_lemma_123(build_difference_graph(chain)) is None

    def test_edgeless_graph_is_clean(self):
        assert verify_lemma_123(difference_graph_from_edges(9, [])) is None

    def test_absent_for_any_adjacency_up_to_five_indices(self):
        # exhaustive: every graph on r <= 5 indices, far below the r >= 9 threshold
        for r in range(1, 6):
            pairs = [(i, j) for i in range(1, r + 1) for j in range(i + 1, r + 1)]
            for mask in range(1 << len(pairs)):
                edges = [pairs[b] for b in range(len(pairs)) if mask >> b & 1]
                assert verify_lemma_123(difference_graph_from_edges(r, edges)) is None

    @given(st.integers(min_value=6, max_value=8), st.data())
    def test_absent_for_random_adjacency_up_to_eight_indices(self, r, data):
        pairs = [(i, j) for i in range(1, r + 1) for j in range(i + 1, r + 1)]
        mask = data.draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
        edges = [pairs[b] for b in range(len(pairs)) if mask >> b & 1]
        assert verify_lemma_123(difference_graph_from_edges(r, edges)) is None

    def test_crafted_violation_at_nine_indices(self):
        edges = [(i, j) for i in (1, 2, 3) for j in (4, 5, 6)]
        edges += [(i, j) for i in (4, 5, 6) for j in (7, 8, 9)]
        violation = verify_lemma_123(difference_graph_from_edges(9, edges))
        assert violation is not None
        assert violation.kind == "consecutive-123" and violation.indices == (4, 5, 6)


class TestTriangleFree:
    @given(chains())
    def test_chain_built_graphs_have_no_triangle(self, chain):
        assert find_triangle(build_difference_graph(chain)) is None

    def test_exhaustive_small_chains_have_no_triangle(self):
        for r in range(1, 5):
            for chain in enumerate_chains(3, r):
                assert find_triangle(build_difference_graph(chain)) is None

    def test_detects_a_planted_triangle(self):
        dg = difference_graph_from_edges(4, [(1, 2), (2, 4), (1, 4)])
        assert find_triangle(dg) == (1, 2, 4)


class TestMirrorSymmetry:
    @given(chains())
    def test_reversal_mirrors_the_difference_graph(self, chain):
        r = chain.r
        original = build_difference_graph(chain)
        mirrored = build_difference_graph(reverse_chain(chain))
        expected = {(r + 1 - j, r + 1 - i) for i, j in original.edge_pairs()}
        assert set(mirrored.edge_pairs()) == expected


class TestDifferenceGraphSerialization:
    def test_written_document_shape(self):
        dg = build_difference_graph(path_example())
        assert write_difference_graph(dg) == (
            '{"format": "chaincliq-dgraph-v1", "r": 3, "edges": [[1, 2], [2, 3]]}'
        )

    @given(chains())
    def test_round_trip_identity(self, chain):
        dg = build_difference_graph(chain)
        text = write_difference_graph(dg)
        assert read_difference_graph(text) == dg
        assert write_difference_graph(read_difference_graph(text)) == text

    def test_rejects_malformed_json(self):
        with pytest.raises(ValueError, match="malformed JSON"):
            read_difference_graph("[")

    def test_rejects_wrong_format_tag(self):
        with pytest.raises(ValueError, match="format tag"):
            read_difference_graph(json.dumps({"format": "x", "r": 2, "edges": []}))

    def test_index_count_is_bounded_by_the_longest_chain(self):
        assert difference_graph_from_edges(2017, [(1, 2017)]).r == 2017  # C(64, 2) + 1
        for r in (2018, 10**12):
            doc = json.dumps({"format": "chaincliq-dgraph-v1", "r": r, "edges": []})
            with pytest.raises(ValueError, match="longest chain length 2017"):
                read_difference_graph(doc)

    def test_rejects_bad_index_pairs(self):
        base = {"format": "chaincliq-dgraph-v1", "r": 3}
        with pytest.raises(ValueError, match="1 <= i < j"):
            read_difference_graph(json.dumps({**base, "edges": [[2, 2]]}))
        with pytest.raises(ValueError, match="1 <= i < j"):
            read_difference_graph(json.dumps({**base, "edges": [[1, 4]]}))
        with pytest.raises(ValueError, match="duplicate"):
            read_difference_graph(json.dumps({**base, "edges": [[1, 2], [1, 2]]}))

    @pytest.mark.parametrize("item", [5, (1, 2, 3), (1,), None])
    def test_index_pair_must_be_a_pair(self, item):
        with pytest.raises(ValueError, match=rf"index pair {re.escape(repr(item))} must be a pair"):
            difference_graph_from_edges(3, [item])
        doc = json.dumps({"format": "chaincliq-dgraph-v1", "r": 3, "edges": [item]})
        with pytest.raises(ValueError, match="must be a pair of indices"):
            read_difference_graph(doc)
