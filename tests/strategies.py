"""Shared test helpers: seeded-chain strategies, the v1 chain writer, one-value
document mutations, crafted vertex subsets, a naive solver, the per-chain
theorem sweep, a chain digest."""

import hashlib
import json
from math import comb

from hypothesis import strategies as st

from chaincliq import (
    GraphChain,
    OracleReport,
    SINGLE_STEP,
    StepDistribution,
    TheoremReport,
    alon_guarantee,
    alon_witness,
    build_difference_graph,
    enumerate_chains,
    greedy_good_witness,
    max_independent_set,
    random_chain,
    verify_lemma_123,
    verify_lemma_abcd,
)
from chaincliq.chains import _CHAIN_FORMAT_V1

MAX_SEED = 2**64 - 1
NAIVE_CUTOFF = 20


@st.composite
def step_distributions(draw):
    kind = draw(st.sampled_from(["single", "geometric"]))
    if kind == "single":
        return SINGLE_STEP
    return StepDistribution("geometric", draw(st.sampled_from([0.3, 0.5, 0.9])))


@st.composite
def chains(draw, min_n=2, max_n=7, max_r=12):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    r = draw(st.integers(min_value=1, max_value=min(max_r, comb(n, 2) + 1)))
    dist = draw(step_distributions())
    seed = draw(st.integers(min_value=0, max_value=MAX_SEED))
    return random_chain(n, r, dist, seed)


@st.composite
def suffix_chains(draw, **kwargs):
    """A generated chain with a drawn prefix dropped, so G_1 need not be empty."""
    chain = draw(chains(**kwargs))
    start = draw(st.integers(min_value=0, max_value=chain.r - 1))
    return GraphChain(chain.n, chain.masks[start:])


def v1_chain_doc(chain):
    """The chaincliq-chain-v1 layout, the reference for the v1 reader: every graph's whole edge list."""
    return {
        "format": _CHAIN_FORMAT_V1,
        "n": chain.n,
        "graphs": [[list(e) for e in g.sorted_edges()] for g in chain.graphs],
    }


def v1_text(chain):
    """A chain document as the v1 writer wrote it."""
    return json.dumps(v1_chain_doc(chain))


text_chars = st.characters(blacklist_categories=("Cs",))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(text_chars, max_size=12),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(text_chars, max_size=8), inner, max_size=4),
    max_leaves=10,
)


@st.composite
def one_value_replaced(draw, text):
    """The JSON document `text` with one value, at a drawn depth, replaced."""
    doc = json.loads(text)
    node = doc
    while True:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
        else:
            node[key] = draw(json_values)
            return json.dumps(doc)


@st.composite
def vertex_subsets(draw, n, min_size=2):
    members = draw(
        st.sets(st.integers(min_value=1, max_value=n), min_size=min_size, max_size=n)
    )
    return frozenset(members)


def naive_max_independent_set(dg):
    """Exact alpha by sweeping all 2^r subsets; the reference for the branch and bound.

    A subset is independent iff dropping its lowest index leaves an
    independent set and that index has no neighbor inside the subset.
    nodes_explored counts the 2^r subsets swept.
    """
    r = dg.r
    if r > NAIVE_CUTOFF:
        raise ValueError(f"r={r} exceeds the naive-enumeration cutoff {NAIVE_CUTOFF}")
    total = 1 << r
    ok = bytearray(total)
    ok[0] = 1
    best = 0
    best_mask = 0
    for s in range(1, total):
        low = s & -s
        rest = s ^ low
        if ok[rest] and not dg.adj[low.bit_length() - 1] & rest:
            ok[s] = 1
            size = s.bit_count()
            if size > best:
                best, best_mask = size, s
    optimum = frozenset(i + 1 for i in range(r) if best_mask >> i & 1)
    return OracleReport(best, optimum, total)


def reference_theorem_report(n, r):
    """The exhaustive sweep with every check run on every chain; the reference
    for verify_theorem_exhaustive, which checks each distinct difference graph once.
    """
    checked = 0
    min_alpha = r + 1
    argmin_chain = None
    for chain in enumerate_chains(n, r):
        dg = build_difference_graph(chain)
        violation = verify_lemma_abcd(dg) or verify_lemma_123(dg)
        if violation is not None:
            raise ValueError(f"structural check failed on an enumerated chain: {violation}")
        greedy = greedy_good_witness(dg)
        triples = alon_witness(dg)
        report = max_independent_set(dg)
        if report.alpha < max(len(greedy.indices), len(triples.indices)):
            raise ValueError("a witness exceeded the exact optimum; solver bug")
        checked += 1
        if report.alpha < min_alpha:
            min_alpha, argmin_chain = report.alpha, chain
    assert argmin_chain is not None  # r >= 1 always yields at least one chain
    return TheoremReport(
        n=n,
        r=r,
        chains_checked=checked,
        min_alpha=min_alpha,
        argmin_chain=argmin_chain,
        bound_ok=min_alpha >= alon_guarantee(r),
    )


def chain_digest(chain):
    """A digest of the chain's masks, independent of how a document lays them out."""
    text = ",".join([str(chain.n), *(format(g.mask, "x") for g in chain.graphs)])
    return hashlib.sha256(text.encode()).hexdigest()[:16]
