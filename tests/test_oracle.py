"""Exact solvers, the exhaustive theorem sweep, and clique-pair families."""

import json
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

import chaincliq.oracle as oracle
from chaincliq import (
    Graph,
    OracleReport,
    GraphChain,
    SINGLE_STEP,
    alon_guarantee,
    build_difference_graph,
    certify_difference_graph,
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
from chaincliq.chains import _chains_from
from chaincliq.cli import run_cli

from strategies import chains, naive_max_independent_set, reference_theorem_report


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
    return GraphChain(n, tuple(g.mask for g in graphs))


class TestMaxIndependentSet:
    def test_path_alpha_two(self):
        report = max_independent_set(path_dg())
        assert report.alpha == 2
        assert check_independent(path_dg(), report.optimum)

    def test_edgeless_graph(self):
        report = max_independent_set(difference_graph_from_edges(5, []))
        assert report.alpha == 5 and report.optimum == {1, 2, 3, 4, 5}

    def test_single_edge_graph(self):
        chain = GraphChain(2, (0, make_graph(2, [(1, 2)]).mask))
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


SWEEP_CASES = [(n, r) for n in range(1, 5) for r in range(1, comb(n, 2) + 2)]
# Distinct difference-graph adjacencies among all chains of each SWEEP_CASES entry.
DISTINCT_GRAPHS = [1, 1, 1, 1, 2, 3, 1, 1, 2, 7, 28, 44, 28, 7]


class TestTheoremExhaustive:
    @pytest.mark.parametrize("n,r", SWEEP_CASES)
    def test_matches_per_chain_reference(self, n, r):
        report = verify_theorem_exhaustive(n, r)
        reference = reference_theorem_report(n, r)
        assert report == reference
        assert write_theorem_report(report) == write_theorem_report(reference)

    @pytest.mark.parametrize("n,r", SWEEP_CASES)
    def test_solver_runs_once_per_distinct_graph(self, monkeypatch, n, r):
        calls = []
        solve = oracle.max_independent_set
        monkeypatch.setattr(oracle, "max_independent_set", lambda dg: calls.append(dg) or solve(dg))
        verify_theorem_exhaustive(n, r)
        assert len(calls) == DISTINCT_GRAPHS[SWEEP_CASES.index((n, r))]
        assert len({dg.adj for dg in calls}) == len(calls)

    def test_structural_failure_raises(self, monkeypatch):
        monkeypatch.setattr(oracle, "verify_lemma_abcd", lambda dg: (1, 2, 3, 4))
        with pytest.raises(ValueError, match=r"check lemma-abcd failed .*: violation \(1, 2, 3, 4\)"):
            verify_theorem_exhaustive(3, 3)

    def test_witness_above_solver_alpha_raises(self, monkeypatch):
        monkeypatch.setattr(oracle, "max_independent_set", lambda dg: OracleReport(0, frozenset(), 0))
        with pytest.raises(ValueError, match=r"check oracle-alpha failed .*: alpha 0 vs"):
            verify_theorem_exhaustive(3, 3)

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

    @pytest.mark.parametrize("n,r", SWEEP_CASES)
    def test_empty_rooted_weights_count_every_chain(self, n, r):
        # a chain of length r puts each of the m edge slots in G_1, in one of the
        # r - 1 steps, or outside G_r, and every step gets a slot; inclusion-exclusion
        # over the j steps left empty
        m = comb(n, 2)
        total = sum((-1) ** j * comb(r - 1, j) * (r + 1 - j) ** m for j in range(r))
        weights = [1 << (m - c.graphs[-1].mask.bit_count()) for c in _chains_from(n, r, 0)]
        assert sum(weights) == total
        assert verify_theorem_exhaustive(n, r).chains_checked == total

    def test_single_graph_chains_at_the_top_of_the_range(self):
        report = verify_theorem_exhaustive(64, 1)
        assert report.chains_checked == 2**2016
        assert report.min_alpha == 1
        assert report.argmin_chain.graphs[0].mask == 0

    def test_five_vertices_length_two(self):
        report = verify_theorem_exhaustive(5, 2)
        assert report.chains_checked == 3**10 - 2**10 == 58025
        assert report.min_alpha == 1
        assert report.bound_ok

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
            c.masks
            for c in enumerate_chains(n, r)
            if max_independent_set(build_difference_graph(c)).alpha == report.min_alpha
        ]
        assert report.argmin_chain.masks == min(minimal)


CHECK_NAMES = [
    "lemma-abcd", "lemma-123", "triangle-free",
    "witness-greedy-good", "witness-alon-triples", "oracle-alpha",
]


def complete_dg(r):
    return difference_graph_from_edges(r, combinations(range(1, r + 1), 2))


class TestCertifyDifferenceGraph:
    @given(chains())
    def test_chain_built_graphs_pass_every_check(self, chain):
        dg = build_difference_graph(chain)
        alpha, checks = certify_difference_graph(dg)
        assert alpha == max_independent_set(dg).alpha
        assert [c["name"] for c in checks] == CHECK_NAMES
        assert all(c["pass"] for c in checks)

    def test_complete_graph_fails_four_checks(self):
        alpha, checks = certify_difference_graph(complete_dg(12))
        assert alpha == 1
        assert [c["name"] for c in checks] == CHECK_NAMES
        assert [(c["pass"], c["detail"]) for c in checks] == [
            (True, "no violating tuple"),
            (False, "violation (4, 5, 6)"),
            (False, "triangle (1, 2, 3)"),
            (True, "size 1 >= floor 1"),
            (False, "triple 1: all three edge conditions hold, so this graph "
                    "is not the difference graph of any chain"),
            (False, "alpha 1 vs witness sizes [1]"),
        ]

    def test_crossing_pairs_fail_the_abcd_closure(self):
        _, checks = certify_difference_graph(difference_graph_from_edges(4, [(1, 3), (2, 4)]))
        assert checks[0] == {
            "name": "lemma-abcd", "pass": False, "detail": "violation (1, 2, 3, 4)"
        }
        assert all(c["pass"] for c in checks[1:])


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
        assert doc["argmin_chain"]["format"] == "chaincliq-chain-v2"

    def test_family_report_document(self):
        text = write_family_report(max_cliquepair_free_family(2))
        doc = json.loads(text)
        assert doc["format"] == "chaincliq-family-v1"
        assert doc["max_free_size"] == 1 and doc["pair"] is None
