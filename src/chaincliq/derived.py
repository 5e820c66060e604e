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

Each check returns None when its fact holds, else the lexicographically
first index tuple that breaks it. All three accept any symmetric,
irreflexive adjacency, so hand-built graphs that no chain produces can
and should make them return a tuple.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence

from .chains import GraphChain, _parse_json, _tagged
from .graphs import MAX_VERTICES, _TRIANGLE_SIDE, _bits, _slot_vertex_masks

__all__ = [
    "DGRAPH_FORMAT",
    "DifferenceGraph",
    "build_difference_graph",
    "difference_graph_from_edges",
    "find_triangle",
    "neighbor_counts",
    "read_difference_graph",
    "verify_lemma_123",
    "verify_lemma_abcd",
    "write_difference_graph",
]

DGRAPH_FORMAT = "chaincliq-dgraph-v1"


def _check_index_count(r: object) -> None:
    if not isinstance(r, int) or isinstance(r, bool) or r < 1:
        raise ValueError(f"index count must be a positive integer, got {r!r}")
    longest = comb(MAX_VERTICES, 2) + 1  # a strict chain gains an edge at every step
    if r > longest:
        raise ValueError(f"index count {r} exceeds the longest chain length {longest}")


@dataclass(frozen=True)
class DifferenceGraph:
    """Symmetric, irreflexive adjacency over indices 1..r, and nothing else.

    adj[i] is a bitmask over 0-based indices and r = len(adj) is a chain
    length, in [1, C(64, 2) + 1]. Build via build_difference_graph or
    difference_graph_from_edges; other counts and rows raise ValueError.
    """

    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        adj = self.adj
        _check_index_count(len(adj))
        bound = 1 << len(adj)
        for i, row in enumerate(adj, 1):
            if type(row) is not int or not 0 <= row < bound:
                raise ValueError(f"adjacency row {i} must be an integer in [0, 2^{len(adj)})")
            if row >> (i - 1) & 1:
                raise ValueError(f"adjacency row {i} joins index {i} to itself")
        mirrored = 0  # bits above the diagonal whose mirror bit is set
        for i, row in enumerate(adj):
            above = row >> i
            while above:
                low = above & -above
                mirrored += adj[i + low.bit_length() - 1] >> i & 1
                above ^= low
        # a mirrored pair is one bit on each side of the diagonal, so every bit is mirrored iff
        if 2 * mirrored != sum(map(int.bit_count, adj)):
            i, j = next((i, j) for i, row in enumerate(adj) for j in _bits(row) if not adj[j] >> i & 1)
            raise ValueError(f"adjacency is not symmetric: row {i + 1} joins {j + 1}, "
                             f"row {j + 1} does not join {i + 1}")

    @property
    def r(self) -> int:
        return len(self.adj)

    def degree(self, i: int) -> int:
        self._check_index(i)
        return self.adj[i - 1].bit_count()

    def edge_pairs(self) -> tuple[tuple[int, int], ...]:
        """All edges as 1-based (i, j) pairs with i < j, lexicographically sorted."""
        pairs = []
        for i, row in enumerate(self.adj, 1):
            above = row >> i  # bit j stands for index i + j + 1
            while above:
                low = above & -above
                pairs.append((i, i + low.bit_length()))
                above ^= low
        return tuple(pairs)

    def _check_index(self, i: int) -> None:
        if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= len(self.adj):
            raise ValueError(f"index {i!r} out of range [1, {self.r}]")


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


def _step_supports(n: int, masks: Sequence[int]) -> list[int]:
    """steps for _adjacency_from_steps: 0, then the vertex support of masks[k] minus masks[k-1]."""
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
    return steps


def _difference_adjacency(n: int, masks: Sequence[int]) -> list[int]:
    """Adjacency of the difference graph of the strictly nested edge masks."""
    return _adjacency_from_steps(_step_supports(n, masks), list(map(int.bit_count, masks)))


def _moved_adjacency(
    adj: list[int], steps: list[int], counts: list[int], a: int, b: int
) -> list[int]:
    """The difference-graph adjacency after a move that edits G_a..G_(b-1) alike.

    adj is the adjacency before the move; steps and counts describe the chain
    after it, as _adjacency_from_steps reads them. The move must take the
    same edges out of each of G_a..G_(b-1), put the same edges in, and leave
    every other graph as it was. A swap of entry steps a < b does that, and so does a
    resplit, which changes G_a alone (b = a + 1). Then G_j minus G_i is
    unchanged when i < j lie both inside [a, b) or both outside it, and only
    the pairs with exactly one index inside are tested again. They form two
    blocks, i < a <= j < b and a <= i < b <= j. With h the block's split
    point (a, then b), the difference spans the OR of steps i+1..h-1 and of
    steps h..j, so a pair costs one OR and one lookup, as in
    _adjacency_from_steps. adj is never changed, and a == b returns it.
    """
    if a == b:
        return adj
    inner = (1 << b) - (1 << a)
    out = [row & ~inner for row in adj]
    out[a:b] = [row & inner for row in adj[a:b]]
    side = _TRIANGLE_SIDE.get
    for lo, h, hi in ((0, a, b), (a, b, len(adj))):
        below = []  # (i, counts[i], OR of steps i+1..h-1) for i = h-1 down to lo
        low = 0
        for i in range(h - 1, lo - 1, -1):
            below.append((i, counts[i], low))
            low |= steps[i]
        run = 0  # OR of steps h..j
        for j in range(h, hi):
            run |= steps[j]
            cj = counts[j]
            row = 0
            for i, ci, span in below:
                t = side(cj - ci)
                if t is not None and (span | run).bit_count() == t:
                    row |= 1 << i
                    out[i] |= 1 << j
            out[j] |= row
    return out


def build_difference_graph(c: GraphChain) -> DifferenceGraph:
    """The difference graph of a chain: i < j adjacent iff G_j minus G_i is a clique.

    Built from the vertex support and edge count of each step in O(r^2)
    word operations, without walking any edge mask per pair.
    """
    return DifferenceGraph(tuple(_difference_adjacency(c.n, c.masks)))


def difference_graph_from_edges(r: int, edges: Iterable[tuple[int, int]]) -> DifferenceGraph:
    """Assemble a DifferenceGraph from explicit index pairs (mainly for tests and IO)."""
    _check_index_count(r)
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
    return DifferenceGraph(tuple(adj))


def _side_counts(adj: Sequence[int]) -> tuple[list[int], list[int]]:
    """The neighbors below and the neighbors above each index, as two lists."""
    left = [(row & ((1 << i) - 1)).bit_count() for i, row in enumerate(adj)]
    right = [(row >> (i + 1)).bit_count() for i, row in enumerate(adj)]
    return left, right


def neighbor_counts(dg: DifferenceGraph, i: int) -> tuple[int, int]:
    """(left, right) neighbor tallies of index i."""
    dg._check_index(i)
    left, right = _side_counts(dg.adj)
    return left[i - 1], right[i - 1]


def verify_lemma_abcd(dg: DifferenceGraph) -> tuple[int, int, int, int] | None:
    """Scan all a < b < c < d for edges (a, c), (b, d) without the edge (b, c).

    Returns None when the closure holds everywhere (always, for graphs
    built from chains), else the lexicographically first violating
    (a, b, c, d).
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
    return (a0 + 1, b0 + 1, c0 + 1, d0 + 1)


def verify_lemma_123(dg: DifferenceGraph) -> tuple[int, int, int] | None:
    """Find three consecutive indices that all have >= 3 neighbors per side.

    Returns None when no such run exists (always, for graphs built from
    chains), else the index tuple (y, y+1, y+2) of the first run. Any run needs
    y >= 4 and y + 2 <= r - 3, so r <= 8 is vacuously clean.
    """
    bad = [left >= 3 and right >= 3 for left, right in zip(*_side_counts(dg.adj))]
    for y0 in range(dg.r - 2):
        if bad[y0] and bad[y0 + 1] and bad[y0 + 2]:
            return (y0 + 1, y0 + 2, y0 + 3)
    return None


def find_triangle(dg: DifferenceGraph) -> tuple[int, int, int] | None:
    """The lexicographically first triangle (i, j, k) with i < j < k, or None.

    Graphs built from chains have none.
    """
    adj = dg.adj
    for i, row in enumerate(adj):
        above = row >> (i + 1) << (i + 1)
        while above:
            low = above & -above
            j = low.bit_length() - 1
            common = row & adj[j] >> (j + 1) << (j + 1)
            if common:
                return (i + 1, j + 1, (common & -common).bit_length())
            above ^= low
    return None


def write_difference_graph(dg: DifferenceGraph) -> str:
    """Canonical one-line JSON encoding of a difference graph."""
    doc = {
        "format": DGRAPH_FORMAT,
        "r": dg.r,
        "edges": dg.edge_pairs(),
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
