"""Chain validation, generation, enumeration, mirroring, serialization."""

import json
import time
from itertools import product
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaincliq import (
    CHAIN_FORMAT,
    Graph,
    GraphChain,
    SINGLE_STEP,
    SearchConfig,
    StepDistribution,
    enumerate_chains,
    load_records,
    local_search_min_ratio,
    make_graph,
    random_chain,
    read_chain,
    relabel_chain,
    reverse_chain,
    write_chain,
    write_record,
)
from chaincliq.chains import _CHAIN_FORMAT_V1, _chains_from, _parse_json, _tagged

from strategies import (
    MAX_SEED,
    chains,
    one_value_replaced,
    step_distributions,
    suffix_chains,
    v1_chain_doc,
    v1_text,
)

DATA = Path(__file__).parent / "data"


def masks_of(chain):
    return tuple(g.mask for g in chain.graphs)


def edge_masks(n, *edge_lists):
    """The edge mask of make_graph(n, edges) for each edge list."""
    return tuple(make_graph(n, edges).mask for edges in edge_lists)


class TestValidateChain:
    """A GraphChain validates itself: nested, distinct graphs on n vertices, at least one."""

    def test_accepts_nested_distinct_sequence(self):
        chain = GraphChain(3, edge_masks(3, [], [(1, 2)], [(1, 2), (1, 3)]))
        assert chain.r == 3

    def test_rejects_equal_consecutive_graphs(self):
        g = make_graph(3, [(1, 2)]).mask
        with pytest.raises(ValueError, match="distinctness"):
            GraphChain(3, (g, g))

    def test_rejects_non_nested_pair(self):
        with pytest.raises(ValueError, match="not nested"):
            GraphChain(3, edge_masks(3, [(1, 2)], [(1, 3)]))

    def test_rejects_mismatched_n(self):
        # a mask is read at the chain's n, so one using a slot past C(3, 2) is refused
        with pytest.raises(ValueError, match=r"edge mask 32 out of range for n=3"):
            GraphChain(3, edge_masks(4, [(3, 4)]))

    def test_rejects_empty_sequence(self):
        with pytest.raises(ValueError, match="at least one"):
            GraphChain(3, ())


class TestGraphChainConstructor:
    """Faults past the first pair of graphs are named with their positions."""

    def test_rejects_non_nested_pair(self):
        with pytest.raises(ValueError, match="graphs 1 and 2 are not nested"):
            GraphChain(3, edge_masks(3, [(1, 2), (1, 3)], [(2, 3)]))

    def test_rejects_equal_graphs(self):
        with pytest.raises(ValueError, match="graphs 2 and 3 are equal"):
            GraphChain(3, edge_masks(3, [], [(1, 2)], [(1, 2)]))

    def test_rejects_mismatched_n(self):
        with pytest.raises(ValueError, match=r"edge mask 16 out of range for n=3"):
            GraphChain(3, (0, make_graph(4, [(2, 4)]).mask))


def reference_graphs(n, masks):
    """The construction before chains held masks: a Graph per mask, then the nesting checks."""
    graphs = tuple(Graph(n, mask) for mask in masks)
    if not graphs:
        raise ValueError("chain must contain at least one graph")
    for k in range(len(graphs) - 1):
        a, b = graphs[k].mask, graphs[k + 1].mask
        if a == b:
            raise ValueError(f"graphs {k + 1} and {k + 2} are equal (distinctness violation)")
        if a & ~b:
            raise ValueError(f"graphs {k + 1} and {k + 2} are not nested")
    return graphs


@st.composite
def mask_tuples(draw):
    """(n, masks): the masks of a nested chain, then zero to three corruptions."""
    n = draw(st.integers(min_value=1, max_value=6))
    m = comb(n, 2)
    order = draw(st.permutations(range(m)))
    prefixes = [0]
    for slot in order:
        prefixes.append(prefixes[-1] | 1 << slot)
    picks = draw(st.lists(st.integers(0, m), min_size=1, max_size=m + 1, unique=True))
    masks = [prefixes[i] for i in sorted(picks)]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["type", "negative", "large", "equal", "swap", "flip", "empty", "n"]))
        k = draw(st.integers(0, max(len(masks) - 1, 0)))
        if kind == "empty":
            masks = []
        elif kind == "n":
            n = draw(st.sampled_from([0, -1, 65, True, False, 3.0, "3", None]))
        elif not masks:
            continue
        elif kind == "type":
            masks[k] = draw(st.sampled_from([True, False, 1.0, "1", None, Graph(2, 0)]))
        elif kind == "negative":
            masks[k] = -draw(st.integers(1, 1 << (m + 1)))
        elif kind == "large":
            masks[k] = (1 << m) + draw(st.integers(0, 1 << (m + 1)))
        elif kind == "equal":
            masks.insert(k, masks[k])
        elif kind == "swap":
            masks[k - 1], masks[k] = masks[k], masks[k - 1]
        elif isinstance(masks[k], int):
            masks[k] ^= 1 << draw(st.integers(0, m))
    return n, tuple(masks)


class TestMasksMatchGraphConstruction:
    """GraphChain(n, masks) refuses exactly what a Graph per mask plus the nesting checks refused."""

    @settings(max_examples=400)
    @given(mask_tuples())
    def test_same_outcome_and_message(self, case):
        n, masks = case
        try:
            expected = reference_graphs(n, masks)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                GraphChain(n, masks)
            assert str(raised.value) == str(exc)
            return
        chain = GraphChain(n, masks)
        assert chain.graphs == expected
        assert chain.r == len(expected)

    @given(chains())
    def test_graphs_view_is_built_once(self, chain):
        assert chain.graphs is chain.graphs
        assert tuple(g.mask for g in chain.graphs) == chain.masks

    def test_equality_ignores_the_graphs_view(self):
        a, b = random_chain(4, 5, SINGLE_STEP, 8), random_chain(4, 5, SINGLE_STEP, 8)
        a.graphs  # fills a's cache only
        assert a == b and hash(a) == hash(b)


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

    @pytest.mark.parametrize("p", [0.3, 0.999])
    def test_single_step_refuses_a_probability_other_than_one(self, p):
        with pytest.raises(ValueError, match=rf"kind 'single' takes no step probability, got p={p}"):
            StepDistribution("single", p)
        assert StepDistribution("single", 1) == StepDistribution("single", 1.0) == SINGLE_STEP

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
        assert GraphChain(chain.n, chain.masks) == chain

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
            GraphChain(c.n, c.masks)

    def test_rejects_out_of_range_length(self):
        with pytest.raises(ValueError, match="exceeds"):
            list(enumerate_chains(2, 3))

    @pytest.mark.parametrize("n,r", [(n, r) for n in range(1, 4) for r in range(1, comb(n, 2) + 2)])
    def test_grouped_by_first_graph(self, n, r):
        grouped = [c for first in range(1 << comb(n, 2)) for c in _chains_from(n, r, first)]
        assert grouped == list(enumerate_chains(n, r))
        assert all(c.graphs[0].mask == 0 for c in _chains_from(n, r, 0))


class TestReverseChain:
    def test_two_element_chain_is_self_mirror(self):
        chain = GraphChain(2, (0, 1))
        assert reverse_chain(chain) == chain

    def test_forced_small_example(self):
        chain = GraphChain(3, edge_masks(3, [], [(1, 2)], [(1, 2), (1, 3)]))
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
        chain = GraphChain(3, edge_masks(3, [], [(1, 2)]))
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
        chain = GraphChain(3, edge_masks(3, [], [(1, 2)], [(1, 2), (1, 3)]))
        text = write_chain(chain)
        assert text == (
            '{"format": "chaincliq-chain-v2", "n": 3, '
            '"first": [], "steps": [[[1, 2]], [[1, 3]]]}'
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

    def test_wrong_tag_message_names_every_accepted_tag(self):
        doc = {"format": "chaincliq-dgraph-v1", "n": 2, "first": [], "steps": []}
        with pytest.raises(ValueError) as info:
            read_chain(json.dumps(doc))
        assert str(info.value) == ("unsupported format tag 'chaincliq-dgraph-v1' "
                                   "(expected 'chaincliq-chain-v2' or 'chaincliq-chain-v1')")

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
    """The v1 reference reader: shape, type and order of every edge, then make_graph per graph."""
    doc = _tagged(_parse_json(text), "chain document", _CHAIN_FORMAT_V1)
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
    return GraphChain(n, tuple(g.mask for g in graphs))


def cumulative_read_chain(text):
    """The v2 reference reader: each graph's whole edge list rebuilt from the steps, then make_graph."""
    doc = _tagged(_parse_json(text), "chain document", CHAIN_FORMAT)
    first, steps = doc.get("first"), doc.get("steps")
    if not isinstance(first, list) or not isinstance(steps, list):
        raise ValueError("fields 'first' and 'steps' must be lists")
    edges, graphs = [], []
    for entry in [first, *steps]:
        if not isinstance(entry, list):
            raise ValueError("must be a list of edges")
        for e in entry:
            if type(e) is not list or len(e) != 2 or type(e[0]) is not int or type(e[1]) is not int:
                raise ValueError("must be a two-element integer array")
            if e[0] >= e[1]:
                raise ValueError("must satisfy u < v")
        edges = edges + [tuple(e) for e in entry]
        graphs.append(make_graph(doc.get("n"), edges))  # an edge of an earlier step collides here
    return GraphChain(doc["n"], tuple(g.mask for g in graphs))


def chain_text(n=3, last_edge=None):
    """A valid n=3 v1 chain document, or the same with one more edge in its last graph."""
    graphs = [[], [[1, 2]], [[1, 2], [2, 3]]]
    if last_edge is not None:
        graphs[-1].append(last_edge)
    return json.dumps({"format": _CHAIN_FORMAT_V1, "n": n, "graphs": graphs})


SINGLE_FAULTS = {
    **{
        f"edge{edge}": chain_text(last_edge=edge)
        for edge in ([1, 1], [2, 1], [0, 1], [1, 4], [True, 2], [1.0, 2], [1], [1, 2])
    },
    **{f"n={n!r}": chain_text(n=n) for n in (0, -1, 65, 10**9, "3")},
}

chain_texts = suffix_chains(max_n=7, max_r=20).map(v1_text)
v2_texts = suffix_chains(max_n=7, max_r=20).map(write_chain)


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

    @settings(max_examples=300)
    @given(st.one_of(v2_texts, v2_texts.flatmap(one_value_replaced)))
    def test_v2_agrees_with_cumulative_reference(self, text):
        try:
            expected = cumulative_read_chain(text)
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


def v2_doc(first, steps):
    return json.dumps({"format": CHAIN_FORMAT, "n": 3, "first": first, "steps": steps})


V2_FAULTS = {
    "empty step": (v2_doc([[1, 2]], [[[1, 3]], []]), r"graphs 2 and 3 are equal"),
    "edge repeated in a later step": (
        v2_doc([], [[[1, 3]], [[2, 3]], [[1, 3]]]), r"graph 4: duplicate edge \(1, 3\)"
    ),
    "edge of first repeated in a step": (
        v2_doc([[1, 2]], [[[1, 3], [1, 2]]]), r"graph 2: duplicate edge \(1, 2\)"
    ),
    "step edge with u > v": (v2_doc([], [[[3, 1]]]), r"graph 2: edge \[3, 1\] must satisfy u < v"),
    "step not a list": (v2_doc([], [[[1, 2]], {}]), r"graph 3: must be a list of edges"),
    "missing first": (json.dumps({"format": CHAIN_FORMAT, "n": 3, "steps": []}), "'first' and 'steps'"),
    "first not a list": (v2_doc({"1": 2}, []), "'first' and 'steps'"),
    "missing steps": (json.dumps({"format": CHAIN_FORMAT, "n": 3, "first": []}), "'first' and 'steps'"),
    "steps not a list": (v2_doc([], "[]"), "'first' and 'steps'"),
}


class TestChainV2:
    """v2 stores G_1 and each step's added edges; v1 documents are still read."""

    @pytest.mark.parametrize("text,message", V2_FAULTS.values(), ids=V2_FAULTS.keys())
    def test_rejects_fault(self, text, message):
        with pytest.raises(ValueError, match=message):
            read_chain(text)

    @given(suffix_chains())
    def test_v1_and_v2_read_to_the_same_chain(self, chain):
        assert read_chain(v1_text(chain)) == read_chain(write_chain(chain)) == chain

    def test_v1_file_loads_and_rewrites_as_v2(self):
        v1 = (DATA / "chain-v1.json").read_text()
        v2 = (DATA / "chain-v2.json").read_text()
        chain = read_chain(v1)
        assert chain == random_chain(7, 12, StepDistribution("geometric", 0.5), 5)
        assert v1_text(chain) + "\n" == v1  # the v1 reference writes the real v1 bytes
        assert write_chain(chain) + "\n" == v2
        assert read_chain(v2) == chain

    def test_v1_records_file_loads_and_replays(self):
        path = DATA / "records-v1.ldjson"
        records = load_records(path, verify=True)
        assert [(rec.seed, rec.alpha, rec.move_trace_length) for rec in records] == [(1, 4, 29), (2, 4, 29)]
        for rec, line in zip(records, path.read_text().splitlines()):
            replay = SearchConfig(rec.chain.n, rec.chain.r, rec.budget, rec.seed)
            assert local_search_min_ratio(replay, timestamp=rec.timestamp) == rec
            doc = json.loads(line)
            assert doc["chain"] == v1_chain_doc(rec.chain)
            doc["chain"] = json.loads(write_chain(rec.chain))
            assert write_record(rec) == json.dumps(doc)


def test_chain_length_cap_by_construction():
    # a full chain uses every edge slot; one more step must be impossible
    m = comb(4, 2)
    full = random_chain(4, m + 1, SINGLE_STEP, 0)
    assert full.graphs[-1].mask == (1 << m) - 1
    with pytest.raises(ValueError):
        random_chain(4, m + 2, SINGLE_STEP, 0)
