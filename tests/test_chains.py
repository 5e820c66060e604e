"""Chain validation, generation, enumeration, mirroring, serialization."""

import json
import time
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaincliq import (
    CHAIN_FORMAT,
    GraphChain,
    SINGLE_STEP,
    StepDistribution,
    enumerate_chains,
    make_graph,
    random_chain,
    read_chain,
    relabel_chain,
    reverse_chain,
    write_chain,
)
from chaincliq.chains import _parse_json, _tagged

from strategies import MAX_SEED, chains, one_value_replaced, step_distributions


def masks_of(chain):
    return tuple(g.mask for g in chain.graphs)


class TestValidateChain:
    """A GraphChain validates itself: nested, distinct graphs on n vertices, at least one."""

    def test_accepts_nested_distinct_sequence(self):
        graphs = (make_graph(3, []), make_graph(3, [(1, 2)]), make_graph(3, [(1, 2), (1, 3)]))
        chain = GraphChain(3, graphs)
        assert chain.r == 3

    def test_rejects_equal_consecutive_graphs(self):
        g = make_graph(3, [(1, 2)])
        with pytest.raises(ValueError, match="distinctness"):
            GraphChain(3, (g, g))

    def test_rejects_non_nested_pair(self):
        with pytest.raises(ValueError, match="not nested"):
            GraphChain(3, (make_graph(3, [(1, 2)]), make_graph(3, [(1, 3)])))

    def test_rejects_mismatched_n(self):
        with pytest.raises(ValueError, match="mismatched"):
            GraphChain(3, (make_graph(4, []),))

    def test_rejects_empty_sequence(self):
        with pytest.raises(ValueError, match="at least one"):
            GraphChain(3, ())


class TestGraphChainConstructor:
    """Faults past the first pair of graphs are named with their positions."""

    def test_rejects_non_nested_pair(self):
        graphs = (make_graph(3, [(1, 2), (1, 3)]), make_graph(3, [(2, 3)]))
        with pytest.raises(ValueError, match="graphs 1 and 2 are not nested"):
            GraphChain(3, graphs)

    def test_rejects_equal_graphs(self):
        g = make_graph(3, [(1, 2)])
        with pytest.raises(ValueError, match="distinctness"):
            GraphChain(3, (make_graph(3, []), g, g))

    def test_rejects_mismatched_n(self):
        with pytest.raises(ValueError, match="chain has n=3, graph has n=4"):
            GraphChain(3, (make_graph(3, []), make_graph(4, [(1, 2)])))


class TestRandomChain:
    def test_two_vertex_chain_is_forced(self):
        chain = random_chain(2, 2, SINGLE_STEP, 123)
        assert masks_of(chain) == (0, 1)

    def test_single_steps_from_empty(self):
        chain = random_chain(3, 4, SINGLE_STEP, 5)
        assert chain.graphs[0].mask == 0
        for a, b in zip(chain.graphs, chain.graphs[1:]):
            assert b.edge_count - a.edge_count == 1

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_rejects_out_of_range_seed(self, seed):
        with pytest.raises(ValueError, match="seed"):
            random_chain(4, 5, SINGLE_STEP, seed)

    def test_accepts_both_ends_of_the_seed_range(self):
        for seed in (0, 2**64 - 1):
            assert random_chain(4, 5, SINGLE_STEP, seed).r == 5

    def test_deterministic_in_seed(self):
        a = random_chain(4, 7, SINGLE_STEP, 42)
        b = random_chain(4, 7, SINGLE_STEP, 42)
        assert a == b
        assert a != random_chain(4, 7, SINGLE_STEP, 43)

    def test_rejects_infeasible_length(self):
        with pytest.raises(ValueError, match=r"r exceeds C\(n,2\)\+1"):
            random_chain(2, 5, SINGLE_STEP, 0)
        with pytest.raises(ValueError, match="positive"):
            random_chain(3, 0, SINGLE_STEP, 0)

    def test_geometric_probability_validated(self):
        with pytest.raises(ValueError, match="probability"):
            StepDistribution("geometric", 0.0)
        with pytest.raises(ValueError, match="kind"):
            StepDistribution("uniform")

    @pytest.mark.parametrize("p", ["x", "0.5", None, True, [0.5]])
    def test_non_real_probability_is_a_value_error(self, p):
        with pytest.raises(ValueError, match="probability"):
            StepDistribution("geometric", p)

    def test_geometric_full_length_forces_single_batches(self):
        # with no slack every batch clamps to one edge
        chain = random_chain(3, 4, StepDistribution("geometric", 0.3), 9)
        assert [g.edge_count for g in chain.graphs] == [0, 1, 2, 3]

    @given(chains())
    def test_generated_chains_revalidate(self, chain):
        assert GraphChain(chain.n, chain.graphs) == chain

    @given(st.integers(min_value=0, max_value=MAX_SEED), step_distributions())
    def test_bit_identical_across_runs(self, seed, dist):
        assert random_chain(5, 6, dist, seed) == random_chain(5, 6, dist, seed)


class TestEnumerateChains:
    def test_two_vertices_length_two(self):
        result = list(enumerate_chains(2, 2))
        assert len(result) == 1
        assert masks_of(result[0]) == (0, 1)

    def test_two_vertices_length_one(self):
        assert [masks_of(c) for c in enumerate_chains(2, 1)] == [(0,), (1,)]

    def test_three_vertices_pair_count_matches_brute_force(self):
        # independent count: all ordered strict-subset pairs over the 8 graphs
        expected = sum(
            1
            for a, b in product(range(8), repeat=2)
            if a != b and a & ~b == 0
        )
        got = list(enumerate_chains(3, 2))
        assert len(got) == expected == 19

    def test_canonical_order_and_no_duplicates(self):
        seen = [masks_of(c) for c in enumerate_chains(3, 3)]
        assert seen == sorted(seen)
        assert len(seen) == len(set(seen))
        for c in enumerate_chains(3, 3):
            GraphChain(c.n, c.graphs)

    def test_rejects_out_of_range_length(self):
        with pytest.raises(ValueError, match="exceeds"):
            list(enumerate_chains(2, 3))


class TestReverseChain:
    def test_two_element_chain_is_self_mirror(self):
        chain = GraphChain(2, (make_graph(2, []), make_graph(2, [(1, 2)])))
        assert reverse_chain(chain) == chain

    def test_forced_small_example(self):
        chain = GraphChain(
            3, (make_graph(3, []), make_graph(3, [(1, 2)]), make_graph(3, [(1, 2), (1, 3)]))
        )
        mirrored = reverse_chain(chain)
        assert [g.edges for g in mirrored.graphs] == [
            frozenset(),
            frozenset({(1, 3)}),
            frozenset({(1, 2), (1, 3)}),
        ]

    @given(chains())
    def test_double_reverse_of_generated_chains(self, chain):
        # generated chains start empty, which makes reversal an involution
        assert reverse_chain(reverse_chain(chain)) == chain


class TestRelabelChain:
    def test_identity_permutation(self):
        chain = random_chain(4, 5, SINGLE_STEP, 3)
        assert relabel_chain(chain, [1, 2, 3, 4]) == chain

    def test_swap_permutation(self):
        chain = GraphChain(3, (make_graph(3, []), make_graph(3, [(1, 2)])))
        relabeled = relabel_chain(chain, [3, 2, 1])
        assert relabeled.graphs[1].edges == {(2, 3)}
        assert relabel_chain(chain, (3, 2, 1)) == relabeled

    def test_rejects_non_permutation(self):
        chain = random_chain(3, 2, SINGLE_STEP, 0)
        with pytest.raises(ValueError, match="permutation"):
            relabel_chain(chain, [1, 1, 2])

    @pytest.mark.parametrize(
        "perm", [["a", 1, 2], None, [3.0, 2.0, 1.0], [True, 2, 3], [3, 2], 3, "321"]
    )
    def test_permutation_must_be_n_non_bool_ints(self, perm):
        chain = random_chain(3, 2, SINGLE_STEP, 0)
        with pytest.raises(ValueError, match=r"perm must be a permutation of 1\.\.3"):
            relabel_chain(chain, perm)


class TestChainSerialization:
    def test_written_document_shape(self):
        chain = GraphChain(
            3, (make_graph(3, []), make_graph(3, [(1, 2)]), make_graph(3, [(1, 2), (1, 3)]))
        )
        text = write_chain(chain)
        assert text == (
            '{"format": "chaincliq-chain-v1", "n": 3, '
            '"graphs": [[], [[1, 2]], [[1, 2], [1, 3]]]}'
        )

    @given(chains())
    def test_round_trip_identity(self, chain):
        text = write_chain(chain)
        assert read_chain(text) == chain
        assert write_chain(read_chain(text)) == text

    def test_rejects_malformed_json(self):
        with pytest.raises(ValueError, match="malformed JSON"):
            read_chain("{not json")

    def test_rejects_wrong_format_tag(self):
        with pytest.raises(ValueError, match="format tag"):
            read_chain(json.dumps({"format": "other", "n": 2, "graphs": [[]]}))

    def test_rejects_non_nested_document(self):
        doc = {"format": "chaincliq-chain-v1", "n": 3, "graphs": [[[1, 2]], [[1, 3]]]}
        with pytest.raises(ValueError, match="not nested"):
            read_chain(json.dumps(doc))

    def test_rejects_unordered_edge(self):
        doc = {"format": "chaincliq-chain-v1", "n": 3, "graphs": [[[2, 1]]]}
        with pytest.raises(ValueError, match="u < v"):
            read_chain(json.dumps(doc))

    def test_rejects_out_of_range_edge(self):
        doc = {"format": "chaincliq-chain-v1", "n": 3, "graphs": [[[1, 4]]]}
        with pytest.raises(ValueError, match="outside"):
            read_chain(json.dumps(doc))

    def test_rejects_missing_graphs(self):
        doc = {"format": "chaincliq-chain-v1", "n": 3, "graphs": []}
        with pytest.raises(ValueError, match="nonempty"):
            read_chain(json.dumps(doc))


def two_pass_read_chain(text):
    """The reference reader: shape, type and order of every edge, then make_graph per graph."""
    doc = _tagged(_parse_json(text), "chain document", CHAIN_FORMAT)
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError("field 'n' must be an integer")
    entries = doc.get("graphs")
    if not isinstance(entries, list) or not entries:
        raise ValueError("field 'graphs' must be a nonempty list")
    graphs = []
    for gi, entry in enumerate(entries, 1):
        if not isinstance(entry, list):
            raise ValueError(f"graph {gi}: must be a list of edges")
        pairs = []
        for e in entry:
            if (
                not isinstance(e, list)
                or len(e) != 2
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in e)
            ):
                raise ValueError(f"graph {gi}: edge {e!r} must be a two-element integer array")
            u, v = e
            if u >= v:
                raise ValueError(f"graph {gi}: edge [{u}, {v}] must satisfy u < v")
            pairs.append((u, v))
        try:
            graphs.append(make_graph(n, pairs))
        except ValueError as exc:
            raise ValueError(f"graph {gi}: {exc}") from None
    return GraphChain(n, tuple(graphs))


def chain_text(n=3, last_edge=None):
    """A valid n=3 chain document, or the same with one more edge in its last graph."""
    graphs = [[], [[1, 2]], [[1, 2], [2, 3]]]
    if last_edge is not None:
        graphs[-1].append(last_edge)
    return json.dumps({"format": CHAIN_FORMAT, "n": n, "graphs": graphs})


SINGLE_FAULTS = {
    **{
        f"edge{edge}": chain_text(last_edge=edge)
        for edge in ([1, 1], [2, 1], [0, 1], [1, 4], [True, 2], [1.0, 2], [1], [1, 2])
    },
    **{f"n={n!r}": chain_text(n=n) for n in (0, -1, 65, 10**9, "3")},
}

chain_texts = chains(max_n=7, max_r=20).map(write_chain)


class TestOnePassReader:
    """read_chain checks each edge once and agrees with the two-pass reference."""

    @settings(max_examples=300)
    @given(st.one_of(chain_texts, chain_texts.flatmap(one_value_replaced)))
    def test_agrees_with_two_pass_reference(self, text):
        try:
            expected = two_pass_read_chain(text)
        except ValueError:
            with pytest.raises(ValueError):
                read_chain(text)
        else:
            assert read_chain(text) == expected

    @pytest.mark.parametrize("text", SINGLE_FAULTS.values(), ids=SINGLE_FAULTS.keys())
    def test_single_fault_message_is_unchanged(self, text):
        with pytest.raises(ValueError) as expected:
            two_pass_read_chain(text)
        start = time.perf_counter()
        with pytest.raises(ValueError) as got:
            read_chain(text)
        assert time.perf_counter() - start < 1.0
        assert str(got.value) == str(expected.value)


def test_chain_length_cap_by_construction():
    # a full chain uses every edge slot; one more step must be impossible
    m = comb(4, 2)
    full = random_chain(4, m + 1, SINGLE_STEP, 0)
    assert full.graphs[-1].mask == (1 << m) - 1
    with pytest.raises(ValueError):
        random_chain(4, m + 2, SINGLE_STEP, 0)
