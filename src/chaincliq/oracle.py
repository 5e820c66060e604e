"""Exact exhaustive ground truth for independence and clique-pair questions.

Everything in this module is exact; only the family solver has a size cap:

  * max_independent_set. Bitset branch and bound, exact for any adjacency
    and run at every chain length; used to compare witnesses against true
    optima and as the engine behind the extremal search objective.
  * verify_theorem_exhaustive. Covers every chain of a given (n, r) by
    running only the chains that start at the empty graph, and records
    the smallest exact independence number seen. Once per distinct
    difference graph it runs certify_difference_graph, the check list that
    `chaincliq verify` reports, triangle check included.
  * clique-pair families. A pair G strictly inside H with H minus G a
    clique is the forbidden configuration; max_cliquepair_free_family
    finds the largest family of graphs on {1..n} avoiding it by solving
    maximum independent set on the conflict graph over all 2^C(n,2)
    graphs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence

from .chains import GraphChain, _chain_doc, _chains_from, _check_length
from .derived import (
    DifferenceGraph,
    _difference_adjacency,
    find_triangle,
    verify_lemma_123,
    verify_lemma_abcd,
)
from .graphs import Graph, _bits, _check_vertex_count, _clique_support_mask
from .witness import alon_guarantee, alon_witness, greedy_good_witness

__all__ = [
    "FAMILY_CUTOFF",
    "FAMILY_FORMAT",
    "FamilyReport",
    "ORACLE_FORMAT",
    "OracleReport",
    "THEOREM_FORMAT",
    "TheoremReport",
    "certify_difference_graph",
    "family_has_clique_pair",
    "max_cliquepair_free_family",
    "max_independent_set",
    "verify_theorem_exhaustive",
    "write_family_report",
    "write_oracle_report",
    "write_theorem_report",
]

ORACLE_FORMAT = "chaincliq-oracle-v1"
THEOREM_FORMAT = "chaincliq-theorem-v1"
FAMILY_FORMAT = "chaincliq-family-v1"

FAMILY_CUTOFF = 4


@dataclass(frozen=True)
class OracleReport:
    """Exact independence number, one optimum set, and the search effort spent."""

    alpha: int
    optimum: frozenset[int]
    nodes_explored: int


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of an exhaustive sweep over all chains of one (n, r)."""

    n: int
    r: int
    chains_checked: int
    min_alpha: int
    argmin_chain: GraphChain
    bound_ok: bool


@dataclass(frozen=True)
class FamilyReport:
    """A family of graphs on {1..n} and its clique-pair status."""

    n: int
    family: frozenset[Graph]
    pair: tuple[Graph, Graph] | None
    max_free_size: int


def _greedy_cover_bound(adj: Sequence[int], rem: int) -> int:
    """Greedy clique cover of the remaining vertices; its size bounds alpha."""
    count = 0
    while rem:
        v = (rem & -rem).bit_length() - 1
        clique = 1 << v
        cand = adj[v] & rem
        while cand:
            u = (cand & -cand).bit_length() - 1
            clique |= 1 << u
            cand &= adj[u]
        rem &= ~clique
        count += 1
    return count


def _mis_bitset(adj: Sequence[int]) -> tuple[int, int, int]:
    """Exact maximum independent set on bitmask adjacency.

    Returns (alpha, best_mask, nodes_explored). Vertices of restricted
    degree at most one are always taken outright; otherwise the branch
    vertex is one of maximum restricted degree, and subtrees are cut by
    both the remaining-vertex count and a greedy clique cover.
    """
    size = len(adj)
    full = (1 << size) - 1
    best_mask = 0
    blocked = 0
    for v in sorted(range(size), key=lambda v: (adj[v].bit_count(), v)):
        if not blocked >> v & 1:
            best_mask |= 1 << v
            blocked |= adj[v] | (1 << v)
    best = best_mask.bit_count()
    nodes = 0

    def dfs(rem: int, chosen: int, count: int) -> None:
        nonlocal best, best_mask, nodes
        nodes += 1
        while True:
            m = rem
            grabbed = False
            while m:
                low = m & -m
                v = low.bit_length() - 1
                m ^= low
                dv = adj[v] & rem
                if dv == 0 or dv & (dv - 1) == 0:
                    chosen |= low
                    count += 1
                    rem &= ~(adj[v] | low)
                    grabbed = True
                    break
            if not grabbed:
                break
        if rem == 0:
            if count > best:
                best = count
                best_mask = chosen
            return
        if count + rem.bit_count() <= best:
            return
        if count + _greedy_cover_bound(adj, rem) <= best:
            return
        pivot = -1
        pivot_deg = -1
        m = rem
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            deg = (adj[v] & rem).bit_count()
            if deg > pivot_deg:
                pivot, pivot_deg = v, deg
        bit = 1 << pivot
        dfs(rem & ~(adj[pivot] | bit), chosen | bit, count + 1)
        dfs(rem & ~bit, chosen, count)

    dfs(full, 0, 0)
    return best, best_mask, nodes


def max_independent_set(dg: DifferenceGraph) -> OracleReport:
    """Exact alpha of a difference graph by branch and bound."""
    alpha, mask, nodes = _mis_bitset(dg.adj)
    return OracleReport(alpha, frozenset(i + 1 for i in _bits(mask)), nodes)


def certify_difference_graph(dg: DifferenceGraph) -> tuple[int, list[dict]]:
    """The exact alpha of a difference graph and its six certificate checks, in order.

    Each check is a dict with "name", "pass" and "detail". A witness that
    raises ValueError fails its own check and the alpha check; graphs
    built from chains pass all six.
    """
    results = []
    for name, find, clean, label in (
        ("lemma-abcd", verify_lemma_abcd, "no violating tuple", "violation"),
        ("lemma-123", verify_lemma_123, "no bad run", "violation"),
        ("triangle-free", find_triangle, "no triangle", "triangle"),
    ):
        found = find(dg)
        results.append((name, found is None, clean if found is None else f"{label} {found}"))
    sizes = []
    for name, witness in (("witness-greedy-good", greedy_good_witness),
                          ("witness-alon-triples", alon_witness)):
        try:
            ws = witness(dg)
        except ValueError as exc:
            results.append((name, False, str(exc)))
        else:
            sizes.append(len(ws.indices))
            results.append((name, True, f"size {len(ws.indices)} >= floor {ws.guarantee}"))
    alpha = max_independent_set(dg).alpha
    results.append(("oracle-alpha", len(sizes) == 2 and alpha >= max(sizes),
                    f"alpha {alpha} vs witness sizes {sorted(sizes)}"))
    return alpha, [{"name": name, "pass": ok, "detail": detail} for name, ok, detail in results]


def verify_theorem_exhaustive(n: int, r: int) -> TheoremReport:
    """Check every chain of length r on {1..n} against lemmas, floors and exact alpha.

    Only chains with G_1 = empty are run. Subtracting G_1 from every graph
    leaves each difference G_j minus G_i as it was, so a chain H from the
    empty graph stands for the chains A + H_1, ..., A + H_r, one for each
    edge set A disjoint from H_r: 2^(m - |H_r|) chains with m = C(n, 2),
    all with H's difference graph, and every chain arises so exactly once.
    Every check depends only on the difference graph, so
    certify_difference_graph runs once per distinct adjacency. The whole
    n = 2..4 range counts 18,785 chains but runs 9,394 of them and meets
    126 distinct graphs. In canonical order H comes before every chain it
    stands for, so the reported argmin, the smallest chain of minimum
    alpha, is the first chain run to reach that alpha, and a failed check
    is raised, by name and detail, at the first chain with the failing graph.
    """
    _check_vertex_count(n)
    m = _check_length(n, r)
    checked = 0
    min_alpha = r + 1
    argmin_chain: GraphChain | None = None
    alphas: dict[tuple[int, ...], int] = {}
    for chain in _chains_from(n, r, 0):
        masks = chain.masks
        adj = tuple(_difference_adjacency(n, masks))
        alpha = alphas.get(adj)
        if alpha is None:
            alpha, checks = certify_difference_graph(DifferenceGraph(adj))
            for check in checks:
                if not check["pass"]:
                    raise ValueError(f"check {check['name']} failed on an enumerated chain: "
                                     f"{check['detail']}")
            alphas[adj] = alpha
        checked += 1 << (m - masks[-1].bit_count())
        if alpha < min_alpha:
            min_alpha, argmin_chain = alpha, chain
    assert argmin_chain is not None  # r >= 1 always yields at least one chain
    return TheoremReport(
        n=n,
        r=r,
        chains_checked=checked,
        min_alpha=min_alpha,
        argmin_chain=argmin_chain,
        bound_ok=min_alpha >= alon_guarantee(r),
    )


def family_has_clique_pair(n: int, family: Iterable[Graph]) -> tuple[Graph, Graph] | None:
    """First pair (G, H) in the family with G strictly inside H and H minus G a clique.

    Pairs are scanned in ascending (mask of G, mask of H) order; None
    means the family is clique-pair free.
    """
    members = sorted(family, key=lambda g: g.mask)
    for g in members:
        if g.n != n:
            raise ValueError(f"mismatched vertex counts: family has n={n}, graph has n={g.n}")
    for g in members:
        for h in members:
            if g.mask == h.mask or g.mask & ~h.mask:
                continue
            if _clique_support_mask(n, h.mask & ~g.mask) is not None:
                return (g, h)
    return None


def max_cliquepair_free_family(n: int) -> FamilyReport:
    """Largest clique-pair-free family among all 2^C(n,2) graphs on {1..n}.

    Builds the conflict graph whose vertices are all graphs and whose
    edges are the clique pairs (kept undirected: nesting orients each
    conflict, but independence only needs the symmetric relation), then
    solves maximum independent set on it exactly.
    """
    _check_vertex_count(n)
    if n > FAMILY_CUTOFF:
        raise ValueError(f"n={n} exceeds the family-search cutoff {FAMILY_CUTOFF}")
    m = comb(n, 2)
    count = 1 << m
    adj = [0] * count
    for x in range(count):
        for y in range(x + 1, count):
            if x & ~y:
                continue
            if _clique_support_mask(n, y & ~x) is not None:
                adj[x] |= 1 << y
                adj[y] |= 1 << x
    alpha, mask, _nodes = _mis_bitset(adj)
    family = frozenset(Graph(n, x) for x in _bits(mask))
    return FamilyReport(n=n, family=family, pair=None, max_free_size=alpha)


def write_oracle_report(report: OracleReport) -> str:
    doc = {
        "format": ORACLE_FORMAT,
        "alpha": report.alpha,
        "optimum": sorted(report.optimum),
        "nodes_explored": report.nodes_explored,
    }
    return json.dumps(doc)


def write_theorem_report(report: TheoremReport) -> str:
    doc = {
        "format": THEOREM_FORMAT,
        "n": report.n,
        "r": report.r,
        "chains_checked": report.chains_checked,
        "min_alpha": report.min_alpha,
        "argmin_chain": _chain_doc(report.argmin_chain),
        "bound_ok": report.bound_ok,
    }
    return json.dumps(doc)


def write_family_report(report: FamilyReport) -> str:
    members = sorted(report.family, key=lambda g: g.mask)
    doc = {
        "format": FAMILY_FORMAT,
        "n": report.n,
        "max_free_size": report.max_free_size,
        "family": [g.sorted_edges() for g in members],
        "pair": None if report.pair is None else [g.sorted_edges() for g in report.pair],
    }
    return json.dumps(doc)
