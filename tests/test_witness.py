"""The two independent-set extractors and their certificates."""

import json
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given

from chaincliq import (
    WitnessSet,
    alon_guarantee,
    alon_witness,
    best_witness,
    build_difference_graph,
    check_independent,
    difference_graph_from_edges,
    greedy_good_witness,
    greedy_guarantee,
    read_witness,
    enumerate_chains,
    select_triples,
    write_witness,
)

from strategies import chains


def exact_alpha_by_subsets(dg):
    """Oracle: largest independent set by direct subset enumeration (small r only)."""
    best = 0
    for size in range(dg.r, 0, -1):
        for subset in combinations(range(1, dg.r + 1), size):
            if check_independent(dg, subset):
                return size
    return best


def path_dg():
    return difference_graph_from_edges(3, [(1, 2), (2, 3)])


def owner_violates(dg, owner):
    """Reference for the selection rule, from neighbor sets.

    The owner's place p in its triple (a, b, c) names condition p, which
    must fail while every earlier condition of the triple holds:
    1. a has a neighbor past b, 2. b has neighbors on both sides,
    3. c has a neighbor before b. Together these fix the owner uniquely.
    """
    a = owner - (owner - 1) % 3
    b, c = a + 1, a + 2

    def neighbors(i):
        return {j for j in range(1, dg.r + 1) if dg.adj[i - 1] >> (j - 1) & 1}

    holds = (
        any(j > b for j in neighbors(a)),
        any(j > b for j in neighbors(b)) and any(j < b for j in neighbors(b)),
        any(j < b for j in neighbors(c)),
    )
    place = owner - a
    return not holds[place] and all(holds[:place])


def assert_selection_matches_reference(dg):
    owners = select_triples(dg)
    assert len(owners) == dg.r // 3
    for t, owner in enumerate(owners, 1):
        assert owner in (3 * t - 2, 3 * t - 1, 3 * t)
        assert owner_violates(dg, owner)


class TestCheckIndependent:
    def test_path_cases(self):
        dg = path_dg()
        assert check_independent(dg, {1, 3})
        assert not check_independent(dg, {1, 2})

    def test_singleton_is_always_independent(self):
        assert check_independent(path_dg(), {2})

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError, match="out of range"):
            check_independent(path_dg(), {0})


class TestGuaranteeFormulas:
    def test_greedy_values(self):
        assert [greedy_guarantee(r) for r in (1, 2, 3, 20, 21, 38, 56)] == [
            1, 1, 1, 1, 2, 2, 3,
        ]

    def test_triple_values(self):
        assert [alon_guarantee(r) for r in (1, 2, 3, 5, 6, 12, 14)] == [
            1, 1, 1, 1, 1, 2, 2,
        ]


class TestGreedyGoodWitness:
    def test_path_example(self):
        ws = greedy_good_witness(path_dg())
        assert ws.indices == {1, 3}
        assert ws.method == "greedy-good"
        assert ws.guarantee == 1

    def test_singleton_graph(self):
        ws = greedy_good_witness(difference_graph_from_edges(1, []))
        assert ws.indices == {1}

    def test_left_side_scan_when_left_class_is_larger(self):
        # index 1 fans out to everyone: right count 5 kills its right-goodness,
        # while every other index keeps both sides small
        dg = difference_graph_from_edges(6, [(1, j) for j in range(2, 7)])
        ws = greedy_good_witness(dg)
        assert ws.indices == {2, 3, 4, 5, 6}

    @given(chains())
    def test_floor_and_independence_on_generated_chains(self, chain):
        dg = build_difference_graph(chain)
        ws = greedy_good_witness(dg)
        assert check_independent(dg, ws.indices)
        assert len(ws.indices) >= greedy_guarantee(dg.r) >= 1


class TestTripleSelection:
    def test_path_selection(self):
        assert select_triples(path_dg()) == (1,)
        assert owner_violates(path_dg(), 1)

    def test_all_conditions_holding_is_rejected(self):
        # a graph no chain can produce: every condition of triple one holds
        dg = difference_graph_from_edges(4, [(1, 2), (1, 3), (2, 4)])
        with pytest.raises(ValueError, match="not the difference graph"):
            select_triples(dg)

    @pytest.mark.parametrize("edges", [
        [(1, 2), (1, 3)],  # index 2 has a left neighbor and no right one
        [(1, 3), (2, 3)],  # index 2 has a right neighbor and no left one
    ], ids=["no-right", "no-left"])
    def test_middle_owner_on_either_missing_side(self, edges):
        dg = difference_graph_from_edges(3, edges)
        assert select_triples(dg) == (2,)
        assert owner_violates(dg, 2)
        assert not owner_violates(dg, 1) and not owner_violates(dg, 3)

    @given(chains(min_n=3))
    def test_choices_recheck_on_generated_chains(self, chain):
        assert_selection_matches_reference(build_difference_graph(chain))

    @pytest.mark.parametrize("n,max_r", [(2, 2), (3, 4), (4, 4)])
    def test_matches_the_reference_on_every_small_chain(self, n, max_r):
        for r in range(1, max_r + 1):
            for chain in enumerate_chains(n, r):
                assert_selection_matches_reference(build_difference_graph(chain))


class TestAlonWitness:
    def test_path_example(self):
        ws = alon_witness(path_dg())
        assert ws.indices == {1}
        assert ws.method == "alon-triples"
        assert ws.guarantee == 1

    def test_short_graphs_fall_back_to_singleton(self):
        ws = alon_witness(difference_graph_from_edges(1, []))
        assert ws.indices == {1} and ws.method == "singleton-fallback"
        ws = alon_witness(difference_graph_from_edges(2, [(1, 2)]))
        assert ws.indices == {1} and ws.method == "singleton-fallback"

    @given(chains(min_n=4, max_r=14))
    def test_floor_independence_and_orientation_on_generated_chains(self, chain):
        dg = build_difference_graph(chain)
        ws = alon_witness(dg)
        assert check_independent(dg, ws.indices)
        assert len(ws.indices) >= alon_guarantee(dg.r) >= 1
        if dg.r >= 3:
            selected = select_triples(dg)
            smask = 0
            for i in selected:
                smask |= 1 << (i - 1)
            for i in selected:
                within = dg.adj[i - 1] & smask
                outgoing = within >> i
                incoming = within & ((1 << (i - 1)) - 1)
                assert outgoing == 0 or incoming == 0

    def test_twelve_step_chains_yield_at_least_two(self):
        from chaincliq import SINGLE_STEP, random_chain

        for seed in range(25):
            chain = random_chain(6, 12, SINGLE_STEP, seed)
            ws = alon_witness(build_difference_graph(chain))
            assert len(ws.indices) >= 2


class TestBestWitness:
    def test_path_prefers_the_larger_greedy_result(self):
        ws = best_witness(path_dg())
        assert ws.indices == {1, 3} and ws.method == "greedy-good"

    def test_tie_goes_to_the_triple_method(self):
        dg = difference_graph_from_edges(1, [])
        assert best_witness(dg).method == "singleton-fallback"  # the alon-side result

    @given(chains())
    def test_size_is_the_max_of_both_methods(self, chain):
        dg = build_difference_graph(chain)
        expected = max(
            len(greedy_good_witness(dg).indices), len(alon_witness(dg).indices)
        )
        assert len(best_witness(dg).indices) == expected


@given(chains(max_n=5, max_r=10))
def test_witness_sizes_never_exceed_exact_alpha(chain):
    dg = build_difference_graph(chain)
    alpha = exact_alpha_by_subsets(dg)
    assert len(greedy_good_witness(dg).indices) <= alpha
    assert len(alon_witness(dg).indices) <= alpha


class TestWitnessSerialization:
    def test_written_document_shape(self):
        ws = alon_witness(path_dg())
        assert write_witness(ws) == (
            '{"format": "chaincliq-witness-v1", "method": "alon-triples", '
            '"indices": [1], "guarantee": "1"}'
        )

    @given(chains())
    def test_round_trip_identity(self, chain):
        dg = build_difference_graph(chain)
        for ws in (greedy_good_witness(dg), alon_witness(dg)):
            text = write_witness(ws)
            assert read_witness(text) == ws
            assert write_witness(read_witness(text)) == text

    def test_rejects_malformed_documents(self):
        with pytest.raises(ValueError, match="malformed JSON"):
            read_witness("nope")
        with pytest.raises(ValueError, match="format tag"):
            read_witness(json.dumps({"format": "x"}))
        with pytest.raises(ValueError, match="method"):
            read_witness(json.dumps(
                {"format": "chaincliq-witness-v1", "method": "magic", "indices": [1], "guarantee": "1"}
            ))
        with pytest.raises(ValueError, match="indices"):
            read_witness(json.dumps(
                {"format": "chaincliq-witness-v1", "method": "greedy-good", "indices": [], "guarantee": "1"}
            ))
        with pytest.raises(ValueError, match="duplicates"):
            read_witness(json.dumps(
                {"format": "chaincliq-witness-v1", "method": "greedy-good", "indices": [1, 1], "guarantee": "1"}
            ))
        with pytest.raises(ValueError, match="field 'guarantee' must be a canonical integer"):
            read_witness(json.dumps(
                {"format": "chaincliq-witness-v1", "method": "greedy-good", "indices": [1], "guarantee": "x"}
            ))

    def test_zero_denominator_guarantee_is_a_value_error(self):
        with pytest.raises(ValueError, match="field 'guarantee' must be a canonical integer"):
            read_witness(json.dumps(
                {"format": "chaincliq-witness-v1", "method": "greedy-good", "indices": [1], "guarantee": "1/0"}
            ))

    def test_fractional_guarantee_is_refused(self):
        ws = WitnessSet(frozenset({2, 5}), "greedy-good", Fraction(3, 2))
        with pytest.raises(ValueError, match="field 'guarantee' must be a canonical integer"):
            read_witness(write_witness(ws))
