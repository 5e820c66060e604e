"""Shared test helpers: seeded-chain strategies, one-value document mutations,
crafted vertex subsets, a naive solver."""

import json
from math import comb

from hypothesis import strategies as st

from chaincliq import OracleReport, SINGLE_STEP, StepDistribution, random_chain

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
