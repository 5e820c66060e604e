"""Simulated-annealing search for chains with a small independence ratio.

The objective of a chain is alpha/r where alpha is the exact independence
number of its difference graph, recomputed from scratch for every
candidate; witness sizes are only lower bounds and would skew the
landscape. Two move kinds rearrange a chain without changing its
length:

  * resplit: shift one edge's first appearance to an adjacent step,
  * swap: exchange the first-appearance steps of two edges.

Both moves are label-equivariant and alpha is invariant under vertex
permutations, so a move that relabels vertices would reach nothing new.

Moves that would break strict nesting are rejected, not repaired, and a
rejected proposal still consumes budget. Runs are pure functions of
their configuration (plus the supplied timestamp), so any recorded
result can be replayed bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Iterable

from .chains import (
    GraphChain,
    SINGLE_STEP,
    _chain_doc,
    _chain_from_doc,
    random_chain,
    validate_chain,
)
from .derived import _difference_adjacency, build_difference_graph
from .graphs import Graph, _bits
from .oracle import MIS_CUTOFF, _mis_bitset, max_independent_set
from .rng import _MASK64, SplitMix64
from .witness import alon_guarantee

RECORD_FORMAT = "chaincliq-record-v1"

INITIAL_TEMPERATURE = 0.25
DECAY = 0.9995


@dataclass(frozen=True)
class SearchConfig:
    """Full description of one annealing run; two equal configs replay identically."""

    n: int
    r: int
    budget: int
    seed: int

    def __post_init__(self) -> None:
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


def _first_step(masks: list[int], bit: int) -> int:
    for idx, mask in enumerate(masks):
        if mask & bit:
            return idx
    raise AssertionError("edge not present in the chain")


def _propose_resplit(masks: list[int], rng: SplitMix64) -> list[int] | None:
    edges = list(_bits(masks[-1]))
    if not edges:
        return None
    bit = 1 << edges[rng.below(len(edges))]
    step = _first_step(masks, bit)
    direction = -1 if rng.below(2) == 0 else 1
    target = step + direction
    if target < 0 or target >= len(masks):
        return None
    out = list(masks)
    if direction == 1:
        out[step] &= ~bit
        if step > 0 and out[step] == masks[step - 1]:
            return None
    else:
        out[target] |= bit
        if out[target] == masks[step]:
            return None
    return out


def _propose_swap(masks: list[int], rng: SplitMix64) -> list[int] | None:
    edges = list(_bits(masks[-1]))
    if len(edges) < 2:
        return None
    i = rng.below(len(edges))
    j = rng.below(len(edges) - 1)
    if j >= i:
        j += 1
    bit_e, bit_f = 1 << edges[i], 1 << edges[j]
    se, sf = _first_step(masks, bit_e), _first_step(masks, bit_f)
    out = list(masks)
    for k in range(min(se, sf), max(se, sf)):
        out[k] ^= bit_e | bit_f
    return out


def local_search_min_ratio(cfg: SearchConfig, timestamp: str | None = None) -> SearchRecord:
    """Anneal from a seeded random chain, returning the best record seen.

    The timestamp is pure metadata; pass one explicitly to make the whole
    record a deterministic function of the inputs.
    """
    if cfg.r > MIS_CUTOFF:
        raise ValueError(f"r={cfg.r} exceeds the exact-search cutoff {MIS_CUTOFF}")
    rng = SplitMix64(cfg.seed)
    start = random_chain(cfg.n, cfg.r, SINGLE_STEP, rng.next_u64())
    masks = [g.mask for g in start.graphs]

    def alpha_of(candidate: list[int]) -> int:
        return _mis_bitset(_difference_adjacency(cfg.n, candidate))[0]

    current_alpha = alpha_of(masks)
    best_alpha = current_alpha
    best_masks = tuple(masks)
    accepted = 0
    for step in range(cfg.budget):
        if rng.uniform() < 0.5:
            candidate = _propose_resplit(masks, rng)
        else:
            candidate = _propose_swap(masks, rng)
        if candidate is None:
            continue
        alpha = alpha_of(candidate)
        if alpha < best_alpha:  # monotone by construction: only strict improvements
            best_alpha = alpha
            best_masks = tuple(candidate)
        delta = alpha - current_alpha
        if delta <= 0:
            accept = True
        else:
            temperature = max(INITIAL_TEMPERATURE * DECAY**step, 1e-12)
            accept = rng.uniform() < math.exp(-(delta / cfg.r) / temperature)
        if accept:
            masks = candidate
            current_alpha = alpha
            accepted += 1
    chain = validate_chain(cfg.n, [Graph(cfg.n, mk) for mk in best_masks])
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
    if not isinstance(doc, dict):
        raise ValueError("record must be a JSON object")
    fmt = doc.get("format")
    if fmt != RECORD_FORMAT:
        raise ValueError(f"unsupported format tag {fmt!r} (expected {RECORD_FORMAT!r})")
    chain = _chain_from_doc(doc.get("chain"))
    alpha = doc.get("alpha")
    if not isinstance(alpha, int) or isinstance(alpha, bool) or not 1 <= alpha <= chain.r:
        raise ValueError(f"field 'alpha' must be an integer in [1, {chain.r}]")
    try:
        ratio = Fraction(doc.get("ratio"))
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValueError("field 'ratio' must be an exact rational string") from None
    if ratio != Fraction(alpha, chain.r):
        raise ValueError(f"ratio {ratio} inconsistent with alpha {alpha} over r {chain.r}")
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
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"line {lineno}: malformed JSON: {exc}") from None


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
