"""Simulated-annealing search for chains with a small independence ratio.

The objective of a chain is alpha/r where alpha is the exact independence
number of its difference graph, recomputed from scratch for every
candidate; witness sizes are only lower bounds and would skew the
landscape. No move changes the last graph, so the search state is the
step (0 to r-1) at which each of its edges enters; step s's graph holds
the edges entering at or before s. Two moves change entry steps:

  * resplit: move one edge's entry step to an adjacent step,
  * swap: exchange the entry steps of two edges.

Alpha is invariant under vertex permutations, so no move relabels. A
resplit that leaves a step after the first with no entering edge would
break strict nesting and is rejected, not repaired; rejected proposals
still consume budget. Runs are pure functions of their configuration
(plus the supplied timestamp), so any recorded result replays bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from itertools import accumulate
from pathlib import Path
from typing import Iterable

from .chains import (
    GraphChain,
    SINGLE_STEP,
    _chain_doc,
    _chain_from_doc,
    _parse_json,
    _tagged,
    random_chain,
)
from .derived import _adjacency_from_steps, build_difference_graph
from .graphs import Graph, _bits, _slot_vertex_masks
from .oracle import _mis_bitset, max_independent_set
from .rng import _MASK64, SplitMix64
from .witness import alon_guarantee

RECORD_FORMAT = "chaincliq-record-v1"

_INITIAL_TEMPERATURE = 0.25
_DECAY = 0.9995


@dataclass(frozen=True)
class SearchConfig:
    """Full description of one annealing run; two equal configs replay identically."""

    n: int
    r: int
    budget: int
    seed: int

    def __post_init__(self) -> None:
        for field in ("n", "r", "budget", "seed"):
            value = getattr(self, field)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{field} must be an integer, got {value!r}")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")


@dataclass(frozen=True)
class SearchRecord:
    """A persisted extremal result plus everything needed to reproduce it.

    move_trace_length counts accepted moves. The ratio is stored exactly;
    it can never drop below the proven floor for the chain's length, so a
    smaller value in a record file indicates corruption, not a discovery.
    """

    chain: GraphChain
    alpha: int
    ratio: Fraction
    seed: int
    budget: int
    move_trace_length: int
    timestamp: str


def _chain_masks(edges: list[int], first: list[int], r: int) -> list[int]:
    """Edge mask of G_s for s = 0..r-1: every edge whose entry step is at most s."""
    masks = [0] * r
    for slot, step in zip(edges, first):
        masks[step] |= 1 << slot
    for s in range(1, r):
        masks[s] |= masks[s - 1]
    return masks


def _chain_steps(vmasks: list[int], first: list[int], r: int) -> tuple[list[int], list[int]]:
    """Per step s, the vertex support of the edges entering at s and the edge count of G_s.

    vmasks[k] is the endpoint mask of the k-th edge; this is the input of
    _adjacency_from_steps without building any graph's edge mask.
    """
    steps = [0] * r
    sizes = [0] * r
    for vmask, step in zip(vmasks, first):
        steps[step] |= vmask
        sizes[step] += 1
    return steps, list(accumulate(sizes))


def _propose_resplit(first: list[int], r: int, rng: SplitMix64) -> list[int] | None:
    if not first:
        return None
    k = rng.below(len(first))
    step = first[k]
    target = step - 1 if rng.below(2) == 0 else step + 1
    # strict nesting: G_step must keep an entering edge unless it is G_0
    if not 0 <= target < r or (step > 0 and first.count(step) == 1):
        return None
    out = list(first)
    out[k] = target
    return out


def _propose_swap(first: list[int], rng: SplitMix64) -> list[int] | None:
    if len(first) < 2:
        return None
    i = rng.below(len(first))
    j = rng.below(len(first) - 1)
    if j >= i:
        j += 1
    out = list(first)
    out[i], out[j] = first[j], first[i]
    return out


def local_search_min_ratio(cfg: SearchConfig, timestamp: str | None = None) -> SearchRecord:
    """Anneal from a seeded random chain, returning the best record seen.

    The timestamp is pure metadata; pass one explicitly to make the whole
    record a deterministic function of the inputs.
    """
    rng = SplitMix64(cfg.seed)
    masks = [g.mask for g in random_chain(cfg.n, cfg.r, SINGLE_STEP, rng.next_u64()).graphs]
    edges = list(_bits(masks[-1]))
    first = [sum(not mask >> e & 1 for mask in masks) for e in edges]  # graphs missing e
    vmasks = [_slot_vertex_masks(cfg.n)[e] for e in edges]

    def alpha_of(candidate: list[int]) -> int:
        return _mis_bitset(_adjacency_from_steps(*_chain_steps(vmasks, candidate, cfg.r)))[0]

    current_alpha = alpha_of(first)
    best_alpha = current_alpha
    best_first = first
    accepted = 0
    for step in range(cfg.budget):
        if rng.uniform() < 0.5:
            candidate = _propose_resplit(first, cfg.r, rng)
        else:
            candidate = _propose_swap(first, rng)
        if candidate is None:
            continue
        alpha = alpha_of(candidate)
        if alpha < best_alpha:  # monotone by construction: only strict improvements
            best_alpha = alpha
            best_first = candidate
        delta = alpha - current_alpha
        if delta <= 0:
            accept = True
        else:
            temperature = max(_INITIAL_TEMPERATURE * _DECAY**step, 1e-12)
            accept = rng.uniform() < math.exp(-(delta / cfg.r) / temperature)
        if accept:
            first = candidate
            current_alpha = alpha
            accepted += 1
    best_masks = _chain_masks(edges, best_first, cfg.r)
    chain = GraphChain(cfg.n, tuple(Graph(cfg.n, mk) for mk in best_masks))
    ratio = Fraction(best_alpha, cfg.r)
    if ratio < Fraction(alon_guarantee(cfg.r), cfg.r):
        raise AssertionError("search produced a ratio below the proven floor")
    if timestamp is None:
        timestamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    return SearchRecord(
        chain=chain,
        alpha=best_alpha,
        ratio=ratio,
        seed=cfg.seed,
        budget=cfg.budget,
        move_trace_length=accepted,
        timestamp=timestamp,
    )


def write_record(rec: SearchRecord) -> str:
    """Canonical one-line JSON encoding of a search record."""
    doc = {
        "format": RECORD_FORMAT,
        "chain": _chain_doc(rec.chain),
        "alpha": rec.alpha,
        "ratio": str(rec.ratio),
        "seed": rec.seed,
        "budget": rec.budget,
        "move_trace_length": rec.move_trace_length,
        "timestamp": rec.timestamp,
    }
    return json.dumps(doc)


def _record_from_doc(doc: object, verify: bool) -> SearchRecord:
    doc = _tagged(doc, "record", RECORD_FORMAT)
    chain = _chain_from_doc(doc.get("chain"))
    alpha = doc.get("alpha")
    if not isinstance(alpha, int) or isinstance(alpha, bool) or not 1 <= alpha <= chain.r:
        raise ValueError(f"field 'alpha' must be an integer in [1, {chain.r}]")
    floor = alon_guarantee(chain.r)
    if alpha < floor:
        raise ValueError(f"alpha {alpha} is below the proven floor {floor} for r={chain.r}")
    ratio = Fraction(alpha, chain.r)
    if doc.get("ratio") != str(ratio):
        raise ValueError(
            f"field 'ratio' must be {str(ratio)!r}; any other value is inconsistent "
            f"with alpha {alpha} over r {chain.r}"
        )
    meta = {}
    for field in ("seed", "budget", "move_trace_length"):
        value = doc.get(field)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"field {field!r} must be an integer")
        meta[field] = value
    if not 0 <= meta["seed"] <= _MASK64:
        raise ValueError("field 'seed' must be in [0, 2^64)")
    if meta["budget"] < 1:
        raise ValueError("field 'budget' must be >= 1")
    if not 0 <= meta["move_trace_length"] <= meta["budget"]:
        raise ValueError("field 'move_trace_length' must be in [0, budget]")
    stamp = doc.get("timestamp")
    if not isinstance(stamp, str):
        raise ValueError("field 'timestamp' must be a string")
    if verify:
        recomputed = max_independent_set(build_difference_graph(chain)).alpha
        if recomputed != alpha:
            raise ValueError(
                f"alpha verification mismatch (stored {alpha}, recomputed {recomputed})"
            )
    return SearchRecord(chain=chain, alpha=alpha, ratio=ratio, timestamp=stamp, **meta)


def append_record(path: str | Path, rec: SearchRecord) -> None:
    """Append one record to a line-delimited JSON file (one atomic line write)."""
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(write_record(rec) + "\n")


def _decode_line(lineno: int, raw: str) -> object:
    """The JSON value on one records-file line; errors name the line."""
    line = raw.strip()
    if not line:
        raise ValueError(f"line {lineno}: empty line in records file")
    try:
        return _parse_json(line)
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None


def _records_from_docs(docs: Iterable[object], verify: bool) -> list[SearchRecord]:
    """Validate the decoded lines of a records file, in order from line 1."""
    records = []
    for lineno, doc in enumerate(docs, 1):
        try:
            records.append(_record_from_doc(doc, verify))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return records


def load_records(path: str | Path, verify: bool = False) -> list[SearchRecord]:
    """Read a records file, validating every line; verify=True re-checks each alpha."""
    with open(path, "r", encoding="utf-8") as handle:
        docs = (_decode_line(lineno, raw) for lineno, raw in enumerate(handle, 1))
        return _records_from_docs(docs, verify)
