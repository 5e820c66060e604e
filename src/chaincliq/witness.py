"""Constructive independent-set extraction from difference graphs.

Two algorithms, each coming with a size floor that is proven to hold on
every difference graph built from a chain:

  * greedy_good_witness. Call an index good when it has at most two
    neighbors on at least one side. Because no three consecutive indices
    can all be bad (the "123" cap in `derived`), at least floor(r/3)
    indices are good, so the larger of the two side classes holds at
    least half of them. Scanning that class toward its bounded side and
    greedily keeping non-adjacent indices loses at most two candidates
    per kept index, which yields at least ceil((r-2)/18) indices.

  * alon_witness. Split the indices into triples (3i-2, 3i-1, 3i). In
    every complete triple at least one of three edge-existence conditions
    fails: either 3i-2 has no neighbor past 3i-1, or 3i-1 lacks a
    neighbor on one of its sides, or 3i has no neighbor before 3i-1
    (were all three to hold, the closure lemma would force a forbidden
    consecutive-bad run). Selecting one violating owner per triple and
    orienting all edges from lower to higher index leaves every selected
    index with restricted indegree or outdegree zero, so the larger of
    the sink and source classes is independent and has size at least
    ceil(floor(r/3)/2).

Every witness is certified against the source graph before it is
returned; both floors are also enforced at construction, so feeding a
graph that no chain can produce fails loudly instead of returning an
undersized set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from .chains import _parse_json, _tagged
from .derived import DifferenceGraph, _side_counts

__all__ = [
    "METHODS",
    "WITNESS_FORMAT",
    "WitnessSet",
    "alon_guarantee",
    "alon_witness",
    "best_witness",
    "check_independent",
    "greedy_good_witness",
    "greedy_guarantee",
    "read_witness",
    "select_triples",
    "write_witness",
]

WITNESS_FORMAT = "chaincliq-witness-v1"

METHODS = ("greedy-good", "alon-triples", "singleton-fallback")


@dataclass(frozen=True)
class WitnessSet:
    """An independent index set with provenance and its proven size floor."""

    indices: frozenset[int]
    method: str
    guarantee: int


def greedy_guarantee(r: int) -> int:
    """Size floor of the greedy witness: max(1, ceil((r-2)/18))."""
    return max(1, -((2 - r) // 18))


def alon_guarantee(r: int) -> int:
    """Size floor of the triple witness: max(1, ceil(floor(r/3)/2))."""
    return max(1, (r // 3 + 1) // 2)


def check_independent(dg: DifferenceGraph, indices: Iterable[int]) -> bool:
    """True iff no two of the given indices are adjacent in dg."""
    indices = tuple(indices)
    mask = 0
    for i in indices:
        dg._check_index(i)
        mask |= 1 << (i - 1)
    for i in indices:
        if dg.adj[i - 1] & mask:
            return False
    return True


def _certified(dg: DifferenceGraph, indices: frozenset[int], method: str,
               guarantee: int) -> WitnessSet:
    if not check_independent(dg, indices):
        raise ValueError(f"{method} witness failed independence certification")
    if len(indices) < guarantee:
        raise ValueError(
            f"{method} witness has {len(indices)} indices, below the floor "
            f"{guarantee}; the input graph cannot come from a chain"
        )
    return WitnessSet(indices, method, guarantee)


def greedy_good_witness(dg: DifferenceGraph) -> WitnessSet:
    """Greedy scan over the larger class of side-bounded indices.

    The side is chosen by comparing how many indices have right count
    <= 2 against how many have left count <= 2 (an index may qualify for
    both); ties go to the right side. The scan then runs toward the
    bounded side: left to right for the right class, right to left for
    the left class.
    """
    r, adj = dg.r, dg.adj
    left, right = _side_counts(adj)
    right_ok = [i for i, count in enumerate(right) if count <= 2]
    left_ok = [i for i, count in enumerate(left) if count <= 2]
    order = right_ok if len(right_ok) >= len(left_ok) else list(reversed(left_ok))
    chosen_mask = 0
    chosen: list[int] = []
    for i in order:
        if not adj[i] & chosen_mask:
            chosen.append(i)
            chosen_mask |= 1 << i
    return _certified(
        dg, frozenset(i + 1 for i in chosen), "greedy-good", greedy_guarantee(r)
    )


def select_triples(dg: DifferenceGraph) -> tuple[int, ...]:
    """One violating owner per complete triple (3t-2, 3t-1, 3t), in triple order.

    An owner's place in its triple names the condition it violates: the
    first index has no neighbor past the middle, the middle lacks a
    neighbor on one of its sides, the last has no neighbor before the
    middle. The smallest violating owner is taken. Raises when some
    triple violates nothing, which is impossible for a chain-built graph
    and therefore flags either a bug or an adjacency fabricated by hand.
    """
    owners = []
    for a in range(0, dg.r - 2, 3):
        b, c = a + 1, a + 2
        below_b = (1 << b) - 1
        if not dg.adj[a] >> c:
            owners.append(a + 1)
        elif not (dg.adj[b] >> c and dg.adj[b] & below_b):
            owners.append(b + 1)
        elif not dg.adj[c] & below_b:
            owners.append(c + 1)
        else:
            raise ValueError(
                f"triple {a // 3 + 1}: all three edge conditions hold, so this graph "
                "is not the difference graph of any chain"
            )
    return tuple(owners)


def alon_witness(dg: DifferenceGraph) -> WitnessSet:
    """The larger of the sink and source classes of the selected triple owners."""
    r = dg.r
    guarantee = alon_guarantee(r)
    if r < 3:
        return _certified(dg, frozenset({1}), "singleton-fallback", guarantee)
    chosen0 = [i - 1 for i in select_triples(dg)]
    smask = 0
    for u in chosen0:
        smask |= 1 << u
    sinks = []
    sources = []
    for u in chosen0:
        within = dg.adj[u] & smask
        out = within >> (u + 1)
        into = within & ((1 << u) - 1)
        if out and into:
            raise ValueError(
                f"selected index {u + 1} has oriented neighbors on both sides; "
                "triple selection is broken"
            )
        if not out:
            sinks.append(u)
        if not into:
            sources.append(u)
    pick = sinks if len(sinks) >= len(sources) else sources
    return _certified(dg, frozenset(u + 1 for u in pick), "alon-triples", guarantee)


def best_witness(dg: DifferenceGraph) -> WitnessSet:
    """Run both extractors, return the larger witness; ties go to the triple one."""
    greedy = greedy_good_witness(dg)
    triples = alon_witness(dg)
    return triples if len(triples.indices) >= len(greedy.indices) else greedy


def write_witness(ws: WitnessSet) -> str:
    """Canonical one-line JSON encoding of a witness."""
    doc = {
        "format": WITNESS_FORMAT,
        "method": ws.method,
        "indices": sorted(ws.indices),
        "guarantee": str(ws.guarantee),
    }
    return json.dumps(doc)


def read_witness(text: str) -> WitnessSet:
    """Parse a witness document; independence must be re-checked against its graph."""
    doc = _tagged(_parse_json(text), "witness document", WITNESS_FORMAT)
    method = doc.get("method")
    if method not in METHODS:
        raise ValueError(f"unknown witness method {method!r}")
    raw = doc.get("indices")
    if (
        not isinstance(raw, list)
        or not raw
        or not all(isinstance(i, int) and not isinstance(i, bool) and i >= 1 for i in raw)
    ):
        raise ValueError("field 'indices' must be a nonempty list of positive integers")
    indices = frozenset(raw)
    if len(indices) != len(raw):
        raise ValueError("field 'indices' contains duplicates")
    spelled = doc.get("guarantee")
    try:
        guarantee = int(spelled) if isinstance(spelled, str) else None
    except ValueError:
        guarantee = None
    if guarantee is None or str(guarantee) != spelled:  # only the spelling str(int) writes
        raise ValueError("field 'guarantee' must be a canonical integer string")
    if not 1 <= guarantee <= len(indices):
        raise ValueError(f"field 'guarantee' {spelled} is outside [1, {len(indices)}]")
    return WitnessSet(indices, method, guarantee)
