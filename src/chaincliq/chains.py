"""Strictly nested chains of graphs on a common vertex set.

A chain is a sequence G_1, ..., G_r of distinct graphs on {1..n} where
each graph's edge set is a strict subset of the next, so r can be at most
C(n, 2) + 1. Chains here start anywhere and end anywhere; the seeded
generators happen to start from the empty graph, while the exhaustive
enumerator covers every starting point.

Serialization is a single canonical JSON document per chain, byte-stable
across runs so that seeded experiments can be diffed directly. The
written format, chaincliq-chain-v2, stores G_1 and then, for each later
graph, only the edges it adds to the one before, so a document holds
|E(G_r)| edges rather than one list per graph. The reader still accepts
chaincliq-chain-v1, which stores every graph's whole edge list.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from math import comb
from numbers import Real
from typing import Iterator, Sequence

from .graphs import Graph, _bits, _check_vertex_count, _slot_index, _slot_pairs
from .rng import SplitMix64

__all__ = [
    "CHAIN_FORMAT",
    "GraphChain",
    "SINGLE_STEP",
    "StepDistribution",
    "enumerate_chains",
    "random_chain",
    "read_chain",
    "relabel_chain",
    "reverse_chain",
    "write_chain",
]

CHAIN_FORMAT = "chaincliq-chain-v2"
_CHAIN_FORMAT_V1 = "chaincliq-chain-v1"  # still read, no longer written

_TWO64 = 1 << 64


@dataclass(frozen=True)
class StepDistribution:
    """Step-size policy for random chain growth.

    kind "single" (p = 1 only) adds one edge per step. kind "geometric" adds
    1 + Geometric(p) edges, where p is the per-trial success probability;
    batches are clamped so the chain always reaches its target length.
    """

    kind: str
    p: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("single", "geometric"):
            raise ValueError(f"unknown step distribution kind {self.kind!r}")
        if not isinstance(self.p, Real) or isinstance(self.p, bool) or not 0.0 < self.p <= 1.0:
            raise ValueError(f"step probability must be a real number in (0, 1], got {self.p!r}")
        if self.kind == "single" and self.p != 1:
            raise ValueError(f"kind 'single' takes no step probability, got p={self.p!r}")


SINGLE_STEP = StepDistribution("single")


@dataclass(frozen=True)
class GraphChain:
    """A strictly nested sequence of distinct graphs on {1..n}, held as edge masks.

    masks[k] is the edge mask of G_(k+1), as in Graph.mask. Construction
    checks the vertex count, that each mask is an int in [0, 2^C(n, 2)),
    and nesting and distinctness. Strictness between consecutive graphs
    is what bounds the length by C(n, 2) + 1, so no separate length check
    is needed. `graphs` is the same chain as Graph values, built on its
    first read and then kept.
    """

    n: int
    masks: tuple[int, ...]

    def __post_init__(self) -> None:
        masks = self.masks
        if not masks:
            raise ValueError("chain must contain at least one graph")
        _check_vertex_count(self.n)
        bound = 1 << comb(self.n, 2)
        for mask in masks:
            if type(mask) is not int or not 0 <= mask < bound:  # rejects bool
                raise ValueError(f"edge mask {mask!r} out of range for n={self.n}")
        for k in range(len(masks) - 1):
            a, b = masks[k], masks[k + 1]
            if a == b:
                raise ValueError(f"graphs {k + 1} and {k + 2} are equal (distinctness violation)")
            if a & ~b:
                raise ValueError(f"graphs {k + 1} and {k + 2} are not nested")

    @cached_property
    def graphs(self) -> tuple[Graph, ...]:
        return tuple(Graph(self.n, mask) for mask in self.masks)

    @property
    def r(self) -> int:
        return len(self.masks)


def _check_length(n: int, r: int) -> int:
    m = comb(n, 2)
    if not isinstance(r, int) or isinstance(r, bool) or r < 1:
        raise ValueError(f"chain length must be a positive integer, got {r!r}")
    if r > m + 1:
        raise ValueError(f"r exceeds C(n,2)+1 (r={r}, n={n}, max {m + 1})")
    return m


def random_chain(n: int, r: int, dist: StepDistribution, seed: int) -> GraphChain:
    """Seeded random chain of length exactly r, a pure function of its arguments.

    Growth starts from the empty graph and adds a fresh batch of edges per
    step, batch sizes drawn per `dist`. Geometric batches are clamped so
    that at least one fresh edge remains for each later step.
    """
    _check_vertex_count(n)
    m = _check_length(n, r)
    rng = SplitMix64(seed)
    threshold = int(dist.p * _TWO64)
    free = list(range(m))
    masks = [0]
    while len(masks) < r:
        steps_after = r - len(masks) - 1
        if dist.kind == "single":
            batch = 1
        else:
            cap = len(free) - steps_after
            fails = 0
            while fails < cap - 1 and rng.next_u64() >= threshold:
                fails += 1
            batch = 1 + fails
        mask = masks[-1]
        for _ in range(batch):
            slot = free.pop(rng.below(len(free)))
            mask |= 1 << slot
        masks.append(mask)
    return GraphChain(n, tuple(masks))


def _chains_from(n: int, r: int, first: int) -> Iterator[GraphChain]:
    """Every chain of length r on {1..n} whose G_1 has edge mask first, in canonical order.

    The caller has checked n, r and first.
    """
    m = comb(n, 2)
    full = (1 << m) - 1

    def extend(prefix: list[int]) -> Iterator[GraphChain]:
        if len(prefix) == r:
            yield GraphChain(n, tuple(prefix))
            return
        last = prefix[-1]
        if r - len(prefix) > m - last.bit_count():
            return
        comp = full & ~last
        y = 0
        while True:
            y = (y - comp) & comp
            if y == 0:
                return
            prefix.append(last | y)
            yield from extend(prefix)
            prefix.pop()

    yield from extend([first])


def enumerate_chains(n: int, r: int) -> Iterator[GraphChain]:
    """Every chain of length exactly r on {1..n}, each once, in canonical order.

    Canonical order is lexicographic on the sequence of edge-bitmask
    values, so the chains come grouped by G_1, in ascending mask order.
    Cost is exponential in C(n, 2); intended for n <= 4.
    """
    _check_vertex_count(n)
    m = _check_length(n, r)
    for first in range(1 << m):
        yield from _chains_from(n, r, first)


def reverse_chain(c: GraphChain) -> GraphChain:
    """The mirror chain H with H_i = E(G_r) minus E(G_{r+1-i}).

    Valid by construction since complements of a descending nest ascend
    strictly. For i < j, H_{r+1-i} minus H_{r+1-j} equals G_j minus G_i,
    so the mirror's difference graph is the index-reversal of the
    original's. Chains that start empty are fixed points of the double
    reversal.
    """
    top = c.masks[-1]
    return GraphChain(c.n, tuple([top & ~mask for mask in reversed(c.masks)]))


def relabel_chain(c: GraphChain, perm: Sequence[int]) -> GraphChain:
    """Apply a vertex permutation (perm[u-1] is the image of u) to every graph."""
    ints = isinstance(perm, Sequence) and all(type(p) is int for p in perm)
    if not ints or sorted(perm) != list(range(1, c.n + 1)):
        raise ValueError(f"perm must be a permutation of 1..{c.n}")
    index = _slot_index(c.n)
    slot_map = []
    for u, v in _slot_pairs(c.n):
        pu, pv = perm[u - 1], perm[v - 1]
        if pu > pv:
            pu, pv = pv, pu
        slot_map.append(index[(pu, pv)])
    masks = []
    for old in c.masks:
        mask = 0
        for b in _bits(old):
            mask |= 1 << slot_map[b]
        masks.append(mask)
    return GraphChain(c.n, tuple(masks))


def _chain_doc(c: GraphChain) -> dict:
    pairs = _slot_pairs(c.n)
    masks = c.masks
    steps = [[pairs[b] for b in _bits(mask & ~prev)]  # pair tuples, no new list per edge
             for prev, mask in zip(masks, masks[1:])]
    return {"format": CHAIN_FORMAT, "n": c.n, "first": [pairs[b] for b in _bits(masks[0])], "steps": steps}


def _parse_json(text: str) -> object:
    """Decode JSON text; malformed or too deeply nested text is a ValueError."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"malformed JSON: {exc}") from None


def _tagged(doc: object, subject: str, fmt: str, *older: str) -> dict:
    """The document itself, once it is a JSON object tagged fmt or one of the older tags."""
    if not isinstance(doc, dict):
        raise ValueError(f"{subject} must be a JSON object")
    tag = doc.get("format")
    if tag != fmt and tag not in older:
        expected = " or ".join(repr(t) for t in (fmt, *older))
        raise ValueError(f"unsupported format tag {tag!r} (expected {expected})")
    return doc


def _chain_from_doc(doc: object) -> GraphChain:
    """Graph k of the chain is entry k of v1's 'graphs', or 'first' plus v2's first k-1 steps.

    In v1 each entry is a whole graph; in v2 each step's edges join the
    running mask, so an edge already in 'first' or an earlier step is a
    duplicate. Nesting and distinctness (a v2 step with no edge) are left
    to GraphChain.
    """
    doc = _tagged(doc, "chain document", CHAIN_FORMAT, _CHAIN_FORMAT_V1)
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError("field 'n' must be an integer")
    cumulative = doc["format"] == CHAIN_FORMAT
    if cumulative:
        first, steps = doc.get("first"), doc.get("steps")
        if not isinstance(first, list) or not isinstance(steps, list):
            raise ValueError("fields 'first' and 'steps' must be lists")
        entries = [first, *steps]
    else:
        entries = doc.get("graphs")
        if not isinstance(entries, list) or not entries:
            raise ValueError("field 'graphs' must be a nonempty list")
    try:
        _check_vertex_count(n)  # before _slot_index(n) builds a table of C(n, 2) pairs
    except ValueError as exc:
        raise ValueError(f"graph 1: {exc}") from None
    index = _slot_index(n)  # keys are exactly the edges [u, v] with 1 <= u < v <= n
    masks = []
    mask = 0
    for gi, entry in enumerate(entries, 1):
        if not isinstance(entry, list):
            raise ValueError(f"graph {gi}: must be a list of edges")
        if not cumulative:
            mask = 0
        for e in entry:
            if type(e) is not list or len(e) != 2 or type(e[0]) is not int or type(e[1]) is not int:
                raise ValueError(f"graph {gi}: edge {e!r} must be a two-element integer array")
            u, v = e
            slot = index.get((u, v))
            if slot is None:
                if u >= v:
                    raise ValueError(f"graph {gi}: edge [{u}, {v}] must satisfy u < v")
                raise ValueError(f"graph {gi}: edge ({u}, {v}) has an endpoint outside [1, {n}]")
            if mask >> slot & 1:
                raise ValueError(f"graph {gi}: duplicate edge ({u}, {v})")
            mask |= 1 << slot
        masks.append(mask)
    return GraphChain(n, tuple(masks))


def write_chain(c: GraphChain) -> str:
    """Canonical one-line JSON encoding of a chain."""
    return json.dumps(_chain_doc(c))


def read_chain(text: str) -> GraphChain:
    """Parse and fully validate a chain document; inverse of write_chain."""
    return _chain_from_doc(_parse_json(text))
