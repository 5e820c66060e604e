"""Exact solvers, the exhaustive theorem sweep, and clique-pair families."""

import json
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chaincliq import (
    Graph,
    GraphChain,
    SINGLE_STEP,
    alon_guarantee,
    build_difference_graph,
    check_independent,
    difference_graph_from_edges,
    edge_difference,
    enumerate_chains,
    family_has_clique_pair,
    is_clique,
    is_subgraph,
    make_graph,
    max_cliquepair_free_family,
    max_independent_set,
    random_chain,
    verify_theorem_exhaustive,
    write_chain,
    write_family_report,
    write_oracle_report,
    write_theorem_report,
)
from chaincliq.cli import run_cli

from strategies import chains, naive_max_independent_set


def path_dg():
    return difference_graph_from_edges(3, [(1, 2), (2, 3)])


GADGET_ORDER = [(2, 4), (1, 4), (4, 5), (1, 5), (3, 5), (2, 5), (2, 3), (3, 4), (1, 3), (1, 2)]


def gadget_chain(blocks):
    """From the empty graph, fill K_5 on each block of five vertices in turn.

    One block alone is a chain of 11 graphs whose difference graph has
    alpha 5; each further block adds ten indices and five to alpha.
    """
    n = 5 * blocks
    edges = []
    graphs = [make_graph(n, edges)]
    for k in range(blocks):
        for u, v in GADGET_ORDER:
            edges.append((5 * k + u, 5 * k + v))
            graphs.append(make_graph(n, edges))
    return GraphChain(n, tuple(graphs))


class TestMaxIndependentSet:
    def test_path_alpha_two(self):
        report = max_independent_set(path_dg())
        assert report.alpha == 2
        assert check_independent(path_dg(), report.optimum)

    def test_edgeless_graph(self):
        report = max_independent_set(difference_graph_from_edges(5, []))
        assert report.alpha == 5 and report.optimum == {1, 2, 3, 4, 5}

    def test_single_edge_graph(self):
        chain = GraphChain(2, (make_graph(2, []), make_graph(2, [(1, 2)])))
        dg = build_difference_graph(chain)
        assert max_independent_set(dg).alpha == 1

    def test_deterministic_report(self):
        dg = build_difference_graph(random_chain(6, 14, SINGLE_STEP, 77))
        assert max_independent_set(dg) == max_independent_set(dg)

    def test_gadget_chain_past_64_indices(self, tmp_path, capsys):
        chain = gadget_chain(12)
        assert chain.r == 121
        report = max_independent_set(build_difference_graph(chain))
        assert report.alpha == 60 == len(report.optimum)
        path = tmp_path / "gadgets.json"
        path.write_text(write_chain(chain) + "\n")
        assert run_cli(["verify", "--in", str(path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["all_pass"] is True
        assert summary["checks"][-1]["detail"].startswith("alpha 60 vs witness sizes")


class TestNaiveCrossCheck:
    def test_path_agrees(self):
        assert naive_max_independent_set(path_dg()).alpha == 2

    def test_singleton(self):
        assert naive_max_independent_set(difference_graph_from_edges(1, [])).alpha == 1

    def test_cutoff_guard(self):
        dg = difference_graph_from_edges(21, [])
        with pytest.raises(ValueError, match="cutoff"):
            naive_max_independent_set(dg)

    @given(chains(max_r=12))
    def test_agrees_with_branch_and_bound_on_chains(self, chain):
        dg = build_difference_graph(chain)
        fast = max_independent_set(dg)
        slow = naive_max_independent_set(dg)
        assert fast.alpha == slow.alpha
        assert check_independent(dg, fast.optimum) and check_independent(dg, slow.optimum)

    @given(st.integers(min_value=2, max_value=9), st.data())
    def test_agrees_on_arbitrary_adjacency(self, r, data):
        pairs = [(i, j) for i in range(1, r + 1) for j in range(i + 1, r + 1)]
        mask = data.draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
        dg = difference_graph_from_edges(r, [pairs[b] for b in range(len(pairs)) if mask >> b & 1])
        assert max_independent_set(dg).alpha == naive_max_independent_set(dg).alpha


class TestTheoremExhaustive:
    def test_two_vertex_base_case(self):
        report = verify_theorem_exhaustive(2, 2)
        assert report.chains_checked == 1
        assert report.min_alpha == 1
        assert report.bound_ok

    def test_counts_match_independent_pair_enumeration(self):
        expected_pairs = sum(
            1 for a, b in product(range(8), repeat=2) if a != b and a & ~b == 0
        )
        assert verify_theorem_exhaustive(3, 2).chains_checked == expected_pairs

    @pytest.mark.parametrize("n,r", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (3, 4)])
    def test_bound_holds_on_small_cases(self, n, r):
        report = verify_theorem_exhaustive(n, r)
        assert report.bound_ok
        assert report.min_alpha >= alon_guarantee(r)

    def test_min_alpha_matches_per_chain_recomputation(self):
        report = verify_theorem_exhaustive(3, 3)
        alphas = [
            max_independent_set(build_difference_graph(c)).alpha
            for c in enumerate_chains(3, 3)
        ]
        assert report.min_alpha == min(alphas) == 2
        argmin_dg = build_difference_graph(report.argmin_chain)
        assert max_independent_set(argmin_dg).alpha == report.min_alpha

    @pytest.mark.parametrize("n,r", [(3, "2"), (3, 2.0), (3, True), ("3", 2), (3.0, 2), (None, 2)])
    def test_non_integer_arguments_are_value_errors(self, n, r):
        with pytest.raises(ValueError, match="must be a positive integer"):
            verify_theorem_exhaustive(n, r)

    @pytest.mark.parametrize("n,r", [(3, 2), (3, 3), (3, 4), (4, 3)])
    def test_argmin_is_the_smallest_chain_of_minimum_alpha(self, n, r):
        report = verify_theorem_exhaustive(n, r)
        minimal = [
            tuple(g.mask for g in c.graphs)
            for c in enumerate_chains(n, r)
            if max_independent_set(build_difference_graph(c)).alpha == report.min_alpha
        ]
        assert tuple(g.mask for g in report.argmin_chain.graphs) == min(minimal)


class TestFamilyHasCliquePair:
    def test_nested_single_edge_pair(self):
        family = {make_graph(2, []), make_graph(2, [(1, 2)])}
        pair = family_has_clique_pair(2, family)
        assert pair == (make_graph(2, []), make_graph(2, [(1, 2)]))
        assert is_subgraph(*pair) and is_clique(edge_difference(pair[1], pair[0])) is not None

    def test_singleton_family(self):
        assert family_has_clique_pair(3, {make_graph(3, [])}) is None

    def test_incomparable_family(self):
        family = {make_graph(3, [(1, 2)]), make_graph(3, [(1, 3), (2, 3)])}
        assert family_has_clique_pair(3, family) is None

    def test_non_clique_difference_is_not_a_pair(self):
        family = {make_graph(3, []), make_graph(3, [(1, 2), (1, 3)])}
        assert family_has_clique_pair(3, family) is None

    def test_rejects_mismatched_n(self):
        with pytest.raises(ValueError, match="mismatched"):
            family_has_clique_pair(3, {make_graph(4, [])})


def max_free_size_by_subset_enumeration(n):
    """Oracle: scan all subsets of all graphs on {1..n} for clique-pair freeness."""
    graphs = [Graph(n, mask) for mask in range(1 << comb(n, 2))]
    best = 0
    for size in range(len(graphs), 0, -1):
        for subset in combinations(graphs, size):
            if family_has_clique_pair(n, subset) is None:
                return size
    return best


class TestMaxCliquePairFreeFamily:
    def test_two_vertices(self):
        report = max_cliquepair_free_family(2)
        assert report.max_free_size == 1
        assert family_has_clique_pair(2, report.family) is None

    def test_three_vertices_matches_subset_enumeration(self):
        report = max_cliquepair_free_family(3)
        assert report.max_free_size == max_free_size_by_subset_enumeration(3)
        assert len(report.family) == report.max_free_size
        assert family_has_clique_pair(3, report.family) is None

    def test_four_vertices_family_is_free(self):
        report = max_cliquepair_free_family(4)
        assert len(report.family) == report.max_free_size
        assert family_has_clique_pair(4, report.family) is None

    def test_cutoff_guard(self):
        with pytest.raises(ValueError, match="cutoff"):
            max_cliquepair_free_family(5)


class TestReportSerialization:
    def test_oracle_report_document(self):
        text = write_oracle_report(max_independent_set(path_dg()))
        doc = json.loads(text)
        assert doc["format"] == "chaincliq-oracle-v1"
        assert doc["alpha"] == 2 and sorted(doc["optimum"]) == doc["optimum"]

    def test_theorem_report_document(self):
        text = write_theorem_report(verify_theorem_exhaustive(2, 2))
        doc = json.loads(text)
        assert doc["format"] == "chaincliq-theorem-v1"
        assert doc["chains_checked"] == 1 and doc["bound_ok"] is True
        assert doc["argmin_chain"]["format"] == "chaincliq-chain-v1"

    def test_family_report_document(self):
        text = write_family_report(max_cliquepair_free_family(2))
        doc = json.loads(text)
        assert doc["format"] == "chaincliq-family-v1"
        assert doc["max_free_size"] == 1 and doc["pair"] is None
