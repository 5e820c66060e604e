"""The difference graph of a chain and its structural invariants.

For a chain G_1 c ... c G_r the difference graph lives on the index set
{1..r} and joins i < j exactly when the edge set G_j minus G_i is a
clique. Two facts about this graph are machine-checked here rather than
trusted:

  * the "abcd" closure: for a < b < c < d, if (a, c) and (b, d) are edges
    then so is (b, c), because the difference c-minus-b is the nonempty
    intersection of two cliques;
  * the "123" cap: no three consecutive indices can all have three or
    more neighbors on each side. Otherwise the closure forces both
    single-step differences around the middle index to be cliques, and
    their edge-disjoint union would have to be a clique as well, which
    is impossible.

A consequence of the same argument is that difference graphs of chains
are triangle-free; find_triangle exists to watch that invariant.

Both verifiers accept arbitrary adjacency data, so hand-built graphs that
no chain produces can and should make them return a violation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence

from .chains import GraphChain, _parse_json, _tagged
from .graphs import MAX_VERTICES, _TRIANGLE_SIDE, _slot_vertex_masks

DGRAPH_FORMAT = "chaincliq-dgraph-v1"


@dataclass(frozen=True)
class DifferenceGraph:
    """Symmetric, irreflexive adjacency over indices 1..r with cached side counts.

    adj[i] is a bitmask over 0-based indices; left/right counts tally the
    neighbors below and above each index. Build via build_difference_graph
    or difference_graph_from_edges.
    """

    r: int
    adj: tuple[int, ...]
    left_counts: tuple[int, ...]
    right_counts: tuple[int, ...]

    def degree(self, i: int) -> int:
        self._check_index(i)
        return self.adj[i - 1].bit_count()

    def edge_pairs(self) -> tuple[tuple[int, int], ...]:
        """All edges as 1-based (i, j) pairs with i < j, lexicographically sorted."""
        out = []
        for i in range(self.r):
            upper = self.adj[i] >> (i + 1)
            j = i + 1
            while upper:
                if upper & 1:
                    out.append((i + 1, j + 1))
                upper >>= 1
                j += 1
        return tuple(out)

    def _check_index(self, i: int) -> None:
        if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= self.r:
            raise ValueError(f"index {i!r} out of range [1, {self.r}]")


@dataclass(frozen=True)
class LemmaViolation:
    """A witnessing index tuple for a failed structural check."""

    kind: str  # "abcd" or "consecutive-123"
    indices: tuple[int, ...]


def _adjacency_from_steps(steps: Sequence[int], counts: Sequence[int]) -> list[int]:
    """Difference-graph adjacency of a strictly nested chain from its steps.

    steps[s] is the vertex support of G_s minus G_(s-1) (steps[0] is never
    read) and counts[s] is the edge count of G_s. For i < j the difference
    G_j minus G_i has counts[j] - counts[i] edges and spans the OR of steps
    i+1..j, and an edge set spanning t vertices is a clique iff it has
    t(t-1)/2 edges. So a pair costs one OR and one lookup, and only pairs
    with a triangular edge count take a popcount.
    """
    r = len(counts)
    adj = [0] * r
    side = _TRIANGLE_SIDE.get
    for j in range(1, r):
        cj = counts[j]
        support = 0
        i = j
        while i:  # i = j-1 down to 0; a while loop costs less than a range on short chains
            i -= 1
            support |= steps[i + 1]
            t = side(cj - counts[i])
            if t is not None and support.bit_count() == t:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def _difference_adjacency(n: int, masks: Sequence[int]) -> list[int]:
    """Adjacency of the difference graph of the strictly nested edge masks."""
    vmasks = _slot_vertex_masks(n)
    steps = [0]
    for prev, mask in zip(masks, masks[1:]):
        step = mask & ~prev
        support = 0
        while step:
            low = step & -step
            support |= vmasks[low.bit_length() - 1]
            step ^= low
        steps.append(support)
    return _adjacency_from_steps(steps, list(map(int.bit_count, masks)))


def _finish(r: int, adj: Sequence[int]) -> DifferenceGraph:
    left = tuple((adj[i] & ((1 << i) - 1)).bit_count() for i in range(r))
    right = tuple(adj[i].bit_count() - left[i] for i in range(r))
    return DifferenceGraph(r, tuple(adj), left, right)


def build_difference_graph(c: GraphChain) -> DifferenceGraph:
    """The difference graph of a chain: i < j adjacent iff G_j minus G_i is a clique.

    Built from the vertex support and edge count of each step in O(r^2)
    word operations, without walking any edge mask per pair.
    """
    return _finish(c.r, _difference_adjacency(c.n, [g.mask for g in c.graphs]))


def difference_graph_from_edges(r: int, edges: Iterable[tuple[int, int]]) -> DifferenceGraph:
    """Assemble a DifferenceGraph from explicit index pairs (mainly for tests and IO)."""
    if not isinstance(r, int) or isinstance(r, bool) or r < 1:
        raise ValueError(f"index count must be a positive integer, got {r!r}")
    longest = comb(MAX_VERTICES, 2) + 1  # a strict chain gains an edge at every step
    if r > longest:
        raise ValueError(f"index count {r} exceeds the longest chain length {longest}")
    adj = [0] * r
    for e in edges:
        if not isinstance(e, (tuple, list)) or len(e) != 2:
            raise ValueError(f"index pair {e!r} must be a pair of indices")
        i, j = e
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in (i, j)):
            raise ValueError(f"index pair ({i!r}, {j!r}) must be integers")
        if not (1 <= i < j <= r):
            raise ValueError(f"index pair ({i}, {j}) must satisfy 1 <= i < j <= {r}")
        if adj[i - 1] >> (j - 1) & 1:
            raise ValueError(f"duplicate index pair ({i}, {j})")
        adj[i - 1] |= 1 << (j - 1)
        adj[j - 1] |= 1 << (i - 1)
    return _finish(r, adj)


def neighbor_counts(dg: DifferenceGraph, i: int) -> tuple[int, int]:
    """(left, right) neighbor tallies of index i."""
    dg._check_index(i)
    return dg.left_counts[i - 1], dg.right_counts[i - 1]


def verify_lemma_abcd(dg: DifferenceGraph) -> LemmaViolation | None:
    """Scan all a < b < c < d for edges (a, c), (b, d) without the edge (b, c).

    Returns None when the closure holds everywhere (always, for graphs
    built from chains), else the lexicographically first violating tuple.
    One scan over bitmasks, with no size limit: the window of b holds
    every non-neighbour c of b between b and b's highest neighbour d, so
    (b, c) is the middle pair of a violation iff c is in that window and
    some a < b is adjacent to c.
    """
    r, adj = dg.r, dg.adj
    windows = [0] * r
    later = 0  # union of the windows of every index above b - 1
    a0 = None
    for b in range(r - 1, 0, -1):
        hi = adj[b].bit_length() - 1
        if hi > b + 1:
            windows[b] = window = ((1 << hi) - (2 << b)) & ~adj[b]
            later |= window
        if adj[b - 1] & later:
            a0 = b - 1
    if a0 is None:
        return None
    b0 = next(b for b in range(a0 + 1, r) if adj[a0] & windows[b])
    hit = adj[a0] & windows[b0]
    c0 = (hit & -hit).bit_length() - 1
    upper = adj[b0] >> (c0 + 1)
    d0 = c0 + (upper & -upper).bit_length()
    return LemmaViolation("abcd", (a0 + 1, b0 + 1, c0 + 1, d0 + 1))


def verify_lemma_123(dg: DifferenceGraph) -> LemmaViolation | None:
    """Find three consecutive indices that all have >= 3 neighbors per side.

    Returns None when no such run exists (always, for graphs built from
    chains), else the first run as (y, y+1, y+2). Any such run needs
    y >= 4 and y + 2 <= r - 3, so r <= 8 is vacuously clean.
    """
    bad = [
        dg.left_counts[i] >= 3 and dg.right_counts[i] >= 3 for i in range(dg.r)
    ]
    for y0 in range(dg.r - 2):
        if bad[y0] and bad[y0 + 1] and bad[y0 + 2]:
            return LemmaViolation("consecutive-123", (y0 + 1, y0 + 2, y0 + 3))
    return None


def find_triangle(dg: DifferenceGraph) -> tuple[int, int, int] | None:
    """First triangle in index order, or None; chain-built graphs have none."""
    for i in range(dg.r):
        upper = dg.adj[i] >> (i + 1)
        j = i + 1
        while upper:
            if upper & 1:
                common = dg.adj[i] & dg.adj[j] & ~((1 << (j + 1)) - 1)
                if common:
                    k = (common & -common).bit_length() - 1
                    return (i + 1, j + 1, k + 1)
            upper >>= 1
            j += 1
    return None


def write_difference_graph(dg: DifferenceGraph) -> str:
    """Canonical one-line JSON encoding of a difference graph."""
    doc = {
        "format": DGRAPH_FORMAT,
        "r": dg.r,
        "edges": [list(e) for e in dg.edge_pairs()],
    }
    return json.dumps(doc)


def read_difference_graph(text: str) -> DifferenceGraph:
    """Parse and validate a difference-graph document; inverse of write_difference_graph."""
    doc = _tagged(_parse_json(text), "difference-graph document", DGRAPH_FORMAT)
    r = doc.get("r")
    edges = doc.get("edges")
    if not isinstance(edges, list):
        raise ValueError("field 'edges' must be a list")
    return difference_graph_from_edges(r, edges)
