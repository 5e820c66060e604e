"""Labeled graphs on vertex set {1..n} stored as edge bitmasks.

Edges are unordered pairs (u, v) normalized to u < v. Each pair is mapped
to the bit position given by its rank in the lexicographic listing of all
C(n, 2) pairs, so whole-set algebra (difference, intersection, the clique
test) runs as single integer operations. The exhaustive oracles and the
annealing loop are built on exactly these operations.

Supported vertex counts stop at MAX_VERTICES (C(64, 2) = 2016 edge slots);
past that the constructors refuse loudly rather than degrade.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator

MAX_VERTICES = 64

# t(t-1)/2 -> t: the only edge count at which a set spanning t vertices is a clique
_TRIANGLE_SIDE = {t * (t - 1) // 2: t for t in range(2, MAX_VERTICES + 1)}


@lru_cache(maxsize=None)
def _slot_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """All pairs (u, v) with u < v in lexicographic order; index = bit position."""
    return tuple((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1))


@lru_cache(maxsize=None)
def _slot_index(n: int) -> dict[tuple[int, int], int]:
    return {pair: i for i, pair in enumerate(_slot_pairs(n))}


@lru_cache(maxsize=None)
def _slot_vertex_masks(n: int) -> tuple[int, ...]:
    """Per edge slot, the two endpoints as a bitmask over n vertex bits."""
    return tuple((1 << (u - 1)) | (1 << (v - 1)) for u, v in _slot_pairs(n))


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_vertex_count(n: object) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"vertex count must be a positive integer, got {n!r}")
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds supported maximum {MAX_VERTICES}")


@dataclass(frozen=True)
class Graph:
    """A graph on {1..n}: one element of a chain, or the difference of two."""

    n: int
    mask: int

    def __post_init__(self) -> None:
        _check_vertex_count(self.n)
        if not isinstance(self.mask, int) or not 0 <= self.mask < 1 << comb(self.n, 2):
            raise ValueError(f"edge mask {self.mask!r} out of range for n={self.n}")

    @property
    def edge_count(self) -> int:
        return self.mask.bit_count()

    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        """Edges as (u, v) pairs with u < v, lexicographically sorted."""
        pairs = _slot_pairs(self.n)
        return tuple(pairs[i] for i in _bits(self.mask))

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.sorted_edges())


def make_graph(n: int, edges: Iterable[tuple[int, int]] = ()) -> Graph:
    """Build a Graph from edge pairs given in either orientation.

    Rejects endpoints outside [1, n], self-loops, and pairs that collide
    after normalization to u < v.
    """
    _check_vertex_count(n)
    index = _slot_index(n)
    mask = 0
    for e in edges:
        if not isinstance(e, (tuple, list)) or len(e) != 2:
            raise ValueError(f"edge {e!r} must be a pair of endpoints")
        u, v = e
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in (u, v)):
            raise ValueError(f"edge ({u!r}, {v!r}) must have integer endpoints")
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) is not allowed")
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside [1, {n}]")
        if u > v:
            u, v = v, u
        bit = 1 << index[(u, v)]
        if mask & bit:
            raise ValueError(f"duplicate edge ({u}, {v})")
        mask |= bit
    return Graph(n, mask)


def is_subgraph(a: Graph, b: Graph) -> bool:
    """True iff every edge of `a` is an edge of `b` (same vertex count required)."""
    if a.n != b.n:
        raise ValueError(f"mismatched vertex counts: {a.n} vs {b.n}")
    return a.mask & ~b.mask == 0


def edge_difference(super_graph: Graph, sub_graph: Graph) -> Graph:
    """Edges of `super_graph` that are not in `sub_graph`.

    Requires the second argument to be a subgraph of the first.
    """
    if super_graph.n != sub_graph.n:
        raise ValueError(f"mismatched vertex counts: {super_graph.n} vs {sub_graph.n}")
    if sub_graph.mask & ~super_graph.mask:
        raise ValueError("second graph is not a subgraph of the first")
    return Graph(super_graph.n, super_graph.mask & ~sub_graph.mask)


def _clique_support_mask(n: int, mask: int) -> int | None:
    """Vertex support (as an n-bit mask) if `mask` is a complete graph on it.

    An edge set spanning k vertices is complete exactly when it has
    k*(k-1)/2 edges, because every edge already lies inside the span. The
    empty set passes vacuously with empty support.
    """
    if mask == 0:
        return 0
    side = _TRIANGLE_SIDE.get(mask.bit_count())
    if side is None:
        return None
    vmasks = _slot_vertex_masks(n)
    support = 0
    m = mask
    while m:
        low = m & -m
        support |= vmasks[low.bit_length() - 1]
        m ^= low
    return support if support.bit_count() == side else None


def is_clique(s: Graph) -> frozenset[int] | None:
    """The spanned vertex set if every pair of spanned vertices is an edge.

    A single edge counts as the 2-clique; the empty edge set counts as a
    clique on no vertices. Returns None otherwise. Callers must compare
    against None, never truth-test: the empty frozenset is falsy.
    """
    support = _clique_support_mask(s.n, s.mask)
    if support is None:
        return None
    return frozenset(i + 1 for i in _bits(support))
