"""Seeded-descent search for chains with a small independence ratio.

The objective of a chain is alpha/r where alpha is the exact independence
number of its difference graph; witness sizes are only lower bounds and
would skew the landscape. The start is a seeded single-step chain from
the empty graph: G_0 is empty and each later step adds one edge. No move
changes the last graph, so the state is the step (1 to r-1) at which each
edge enters, one edge per step, and the support of the edge entering at
each step.

A move swaps the entry steps of two edges, which swaps two step supports
in place. A swap of steps a < b changes G_a..G_(b-1), each by the same
edit, so a candidate's difference graph is the current one with only the
pairs that have one index in [a, b) tested again (_moved_adjacency). The
exact solver runs only when that graph differs from the current state's,
since alpha depends on the graph alone. A candidate is accepted iff its
alpha is at most the current one, so the current alpha never rises and the
record keeps the chain of the last strict improvement. Alpha is invariant
under vertex permutations, so no move relabels.

Half the proposals are resplits, which would move one edge's entry step
to an adjacent step. That always empties a one-edge step and breaks
strict nesting, so a resplit draws its edge and direction and never
moves. Rejected proposals still consume budget. Runs are pure functions
of their configuration (plus the supplied timestamp), so any recorded
result replays bit for bit.
"""

from __future__ import annotations

import io
import itertools
import json
import time
from dataclasses import dataclass
from fractions import Fraction
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
from .derived import _adjacency_from_steps, _moved_adjacency, _step_supports, build_difference_graph
from .oracle import _mis_bitset, max_independent_set
from .rng import _MASK64, SplitMix64
from .witness import alon_guarantee

__all__ = [
    "RECORD_FORMAT",
    "SearchConfig",
    "SearchRecord",
    "append_record",
    "load_records",
    "local_search_min_ratio",
    "write_record",
]

RECORD_FORMAT = "chaincliq-record-v1"

_NO_RECORDS = "the records file holds no records"


@dataclass(frozen=True)
class SearchConfig:
    """Full description of one seeded-descent run; two equal configs replay identically."""

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


def local_search_min_ratio(cfg: SearchConfig, timestamp: str | None = None) -> SearchRecord:
    """Seeded descent from a random chain, returning the best record seen.

    The timestamp is pure metadata; pass one explicitly to make the whole
    record a deterministic function of the inputs.
    """
    rng = SplitMix64(cfg.seed)
    masks = random_chain(cfg.n, cfg.r, SINGLE_STEP, rng.next_u64()).masks
    entering = [(masks[s] & ~masks[s - 1]).bit_length() - 1 for s in range(1, cfg.r)]
    first = sorted(range(1, cfg.r), key=lambda s: entering[s - 1])  # in slot order
    edges = [entering[s - 1] for s in first]
    steps = _step_supports(cfg.n, masks)
    counts = list(range(cfg.r))
    current_adj = _adjacency_from_steps(steps, counts)
    current_alpha = _mis_bitset(current_adj)[0]
    best_first = list(first)
    accepted = 0
    for _ in range(cfg.budget):
        if rng.uniform() < 0.5:
            if edges:
                # A resplit would empty a one-edge step, so it never moves; its
                # draws stay so that seeded records replay byte for byte.
                rng.below(len(edges))
                rng.below(2)
            continue
        if len(edges) < 2:
            continue
        i = rng.below(len(edges))
        j = rng.below(len(edges) - 1)
        if j >= i:
            j += 1
        a, b = sorted((first[i], first[j]))
        steps[a], steps[b] = steps[b], steps[a]
        adj = _moved_adjacency(current_adj, steps, counts, a, b)
        alpha = current_alpha if adj == current_adj else _mis_bitset(adj)[0]
        if alpha > current_alpha:
            steps[a], steps[b] = steps[b], steps[a]
            continue
        first[i], first[j] = first[j], first[i]
        if alpha < current_alpha:
            best_first = list(first)
        current_adj = adj
        current_alpha = alpha
        accepted += 1
    chain = GraphChain(cfg.n, tuple(_chain_masks(edges, best_first, cfg.r)))
    if current_alpha < alon_guarantee(cfg.r):
        raise AssertionError("search produced a ratio below the proven floor")
    if timestamp is None:
        timestamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return SearchRecord(
        chain=chain,
        alpha=current_alpha,
        ratio=Fraction(current_alpha, cfg.r),
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
    """Read a records file, validating every line; verify=True re-checks each alpha.

    An empty file is refused: it holds no record to return.
    """
    with open(path, "r", encoding="utf-8") as handle:
        docs = (_decode_line(lineno, raw) for lineno, raw in enumerate(handle, 1))
        records = _records_from_docs(docs, verify)
    if not records:
        raise ValueError(_NO_RECORDS)
    return records


def _load_records_or_chain(path: str, verify: bool) -> list[SearchRecord] | GraphChain:
    """The records of a records file, or the chain of a chain document.

    Records take one line each, so line 1 of a records file decodes alone and is
    not decoded again. Only a chain document may span lines (--pretty output);
    a record spread over several lines is refused, and so is an empty file.
    """
    text = Path(path).read_text(encoding="utf-8")
    if not text:
        raise ValueError(f"cannot verify {path}: {_NO_RECORDS}")
    head, _, rest = text.partition("\n")
    try:
        doc = _decode_line(1, head)
    except ValueError as line_error:
        try:
            doc = _parse_json(text)
        except ValueError:
            raise line_error from None
        if isinstance(doc, dict) and doc.get("format") == RECORD_FORMAT:
            raise line_error from None
        return _chain_from_doc(doc)
    if rest.strip() or isinstance(doc, dict) and doc.get("format") == RECORD_FORMAT:
        later = (_decode_line(lineno, raw) for lineno, raw in enumerate(io.StringIO(rest), 2))
        return _records_from_docs(itertools.chain([doc], later), verify)
    return _chain_from_doc(doc)
