"""The four benchmark workloads: seeded op lists, their execution, and output checks.

A workload is a list of ops that one pass runs in order, one caller, no
threads. The list is a pure function of the workload seed; the program
sees only the arguments and files the ops hand it. CLI ops go through
`chaincliq.cli.run_cli` with `--out` files relative to the run directory;
the sweep's theorem ops call `chaincliq.verify_theorem_exhaustive`.

Every op's output is checked. The first pass of a run gets the full
check: invariants against reference code in this file for every seed,
plus the stored golden values for the default seed. Later passes must
reproduce the first pass's observation of each op exactly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from pathlib import Path

import chaincliq as cc
import chaincliq.cli as cli

DEFAULT_SEED = 0
GOLDEN_PATH = Path(__file__).resolve().with_name("golden.json")

WORKLOADS = ("large", "desk", "anneal", "sweep")

LARGE = (64, 700)
DESK_SIZES = ((7, 20), (12, 60))
DESK_DISTS = ("single", "geometric:0.5")
DESK_SEEDS = 20
ANNEAL = (11, 56, 250)  # n, r, budget of each search
ANNEAL_SEARCHES = 10
SWEEP_N = (2, 3, 4)
FAMILY_N = (1, 2, 3, 4)


@dataclass(frozen=True)
class Op:
    """One call. `argv` is a CLI argument list, or (n, r) for a theorem op.

    `key` names the chain the op works on, so checks of derive, witness,
    oracle and verify outputs can find the chain that gen wrote.
    """

    kind: str
    argv: tuple
    key: str = ""
    out: str = ""


def _cli_op(kind: str, key: str, out: str, *args: object) -> Op:
    return Op(kind, tuple(str(a) for a in (*args, "--out", out)), key, out)


def _chain_ops(key: str, n: int, r: int, seed: int, dist: str, stages: tuple[str, ...]) -> list[Op]:
    chain = f"c-{key}.json"
    ops = [_cli_op("gen", key, chain, "gen", "--n", n, "--r", r, "--seed", seed, "--step-dist", dist)]
    for stage in stages:
        extra = ("--method", "best") if stage == "witness" else ()
        ops.append(_cli_op(stage, key, f"{stage[0]}-{key}.json", stage, "--in", chain, *extra))
    return ops


def op_list(workload: str, seed: int) -> list[Op]:
    """The ops of one pass; a pure function of (workload, seed)."""
    rng = cc.SplitMix64(seed)
    if workload == "large":
        n, r = LARGE
        return _chain_ops("large", n, r, rng.next_u64(), "single", ("derive", "witness"))
    if workload == "desk":
        ops = []
        for k in range(DESK_SEEDS):
            chain_seed = rng.next_u64()
            for n, r in DESK_SIZES:
                for dist in DESK_DISTS:
                    key = f"{k}-{n}-{r}-{dist[0]}"
                    ops += _chain_ops(key, n, r, chain_seed, dist,
                                      ("derive", "witness", "oracle", "verify"))
        return ops
    if workload == "anneal":
        # Ten short searches from ten seeds, not one long one: how long a
        # search takes depends on where its seed sends it, and the sum over
        # ten seeds varies far less from one workload seed to the next.
        n, r, budget = ANNEAL
        rec = "records.ldjson"
        ops = [_cli_op("search", f"search-{k}", rec, "search", "--n", n, "--r", r,
                       "--budget", budget, "--seed", rng.next_u64())
               for k in range(ANNEAL_SEARCHES)]
        return [*ops, _cli_op("verify", "records", "records-verify.json", "verify", "--in", rec,
                              "--verify")]
    if workload == "sweep":
        ops = [Op("theorem", (n, r), f"{n}-{r}") for n in SWEEP_N for r in range(1, comb(n, 2) + 2)]
        ops += [Op("family", (n,), f"family-{n}") for n in FAMILY_N]
        for i in range(len(ops) - 1, 0, -1):  # seeded order, so the seed picks the inputs
            j = rng.below(i + 1)
            ops[i], ops[j] = ops[j], ops[i]
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def warm(ops: list[Op]) -> None:
    """Fill the per-n slot tables through public calls, so no pass pays for them."""
    sizes = {int(op.argv[op.argv.index("--n") + 1]) for op in ops if "--n" in op.argv}
    sizes |= {op.argv[0] for op in ops if op.kind == "theorem"}
    for n in sorted(sizes):
        if n >= 2:
            g = cc.make_graph(n, [(1, 2)])
            cc.is_clique(cc.edge_difference(g, cc.make_graph(n)))
            g.sorted_edges()


def _search_index(op: Op) -> int:
    """Which line of the shared records file an anneal search op appended."""
    return int(op.key.split("-")[1])


def execute(op: Op) -> object:
    """Run one op: a theorem or family report, or the CLI exit code."""
    if op.kind == "theorem":
        return cc.verify_theorem_exhaustive(*op.argv)
    if op.kind == "family":
        return cc.max_cliquepair_free_family(*op.argv)
    return cli.run_cli(list(op.argv))


# ---------------------------------------------------------------- reference code


@lru_cache(maxsize=None)
def _pair_vertex_masks(n: int) -> tuple[int, ...]:
    """Vertex bitmask of each edge slot; slot = lexicographic rank of the pair."""
    return tuple((1 << u) | (1 << v) for u in range(n) for v in range(u + 1, n))


def _support(n: int, mask: int) -> int:
    pairs = _pair_vertex_masks(n)
    support = 0
    while mask:
        low = mask & -mask
        support |= pairs[low.bit_length() - 1]
        mask ^= low
    return support


def _is_clique(n: int, mask: int) -> bool:
    """An edge set is a clique iff it holds every pair of the vertices it touches."""
    k = _support(n, mask).bit_count()
    return mask.bit_count() == k * (k - 1) // 2


def reference_edges(n: int, masks: list[int]) -> set[tuple[int, int]]:
    """Difference-graph edges of a nested chain, from step supports.

    G_j minus G_i is the disjoint union of steps i+1..j, so its vertex
    support is the OR of those steps' supports and its size is the
    difference of the edge counts.
    """
    steps = [_support(n, masks[k] & ~masks[k - 1]) if k else 0 for k in range(len(masks))]
    counts = [m.bit_count() for m in masks]
    edges = set()
    for i in range(len(masks)):
        support = 0
        for j in range(i + 1, len(masks)):
            support |= steps[j]
            k = support.bit_count()
            if counts[j] - counts[i] == k * (k - 1) // 2:
                edges.add((i + 1, j + 1))
    return edges


def reference_alpha(r: int, edges: set[tuple[int, int]]) -> int:
    """Independence number by trying every subset; small r only."""
    adj = [0] * r
    for i, j in edges:
        adj[i - 1] |= 1 << (j - 1)
        adj[j - 1] |= 1 << (i - 1)
    best = 0
    for s in range(1 << r):
        if s.bit_count() > best and all(not (adj[v] & s) for v in range(r) if s >> v & 1):
            best = s.bit_count()
    return best


def chain_count(m: int, r: int) -> int:
    """Chains of length r over m edge slots: each slot enters at step 1..r or never,
    and steps 2..r each take at least one slot (inclusion-exclusion)."""
    return sum((-1) ** j * comb(r - 1, j) * (r + 1 - j) ** m for j in range(r))


def floors(r: int) -> dict[str, int]:
    """Proven witness size floors at length r, per extractor."""
    return {"greedy-good": max(1, -((2 - r) // 18)), "alon-triples": max(1, (r // 3 + 1) // 2)}


def independent(edges: set[tuple[int, int]], indices: list[int]) -> bool:
    chosen = set(indices)
    return not any(i in chosen and j in chosen for i, j in edges)


def mask_digest(chain: cc.GraphChain) -> str:
    text = ",".join([str(chain.n), *(format(g.mask, "x") for g in chain.graphs)])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def edge_digest(edges) -> str:
    return hashlib.sha256(json.dumps(sorted(edges)).encode()).hexdigest()[:16]


# ---------------------------------------------------------------- checks


class Checker:
    """Checks op outputs in a run directory; remembers what the first pass produced.

    With `record=True` the golden values are collected instead of compared.
    """

    def __init__(self, workload: str, seed: int, run_dir: Path, record: bool = False) -> None:
        self.run_dir = run_dir
        self.record = record
        stored = json.loads(GOLDEN_PATH.read_text(encoding="utf-8")) if GOLDEN_PATH.exists() else {}
        self.golden = stored.setdefault(workload, {})
        self.use_golden = record or seed == DEFAULT_SEED or workload == "sweep"
        self.stored = stored
        self.first: dict[Op, object] = {}
        self.chains: dict[str, cc.GraphChain] = {}
        self.edges: dict[str, set[tuple[int, int]]] = {}
        self.witness: dict[str, int] = {}
        self.probe_chain: cc.GraphChain | None = None

    def check(self, op: Op, result: object) -> str | None:
        """None if the op's output is correct, else what is wrong with it."""
        try:
            seen = self._observe(op, result)
            if op not in self.first:
                problem = self._full_check(op, result)
                if problem is None:
                    self.first[op] = seen
                return problem
            if seen != self.first[op]:
                return f"{op.kind} {op.key}: output differs from the first pass"
            return None
        except (ValueError, OSError, KeyError, TypeError) as exc:
            return f"{op.kind} {op.key}: {type(exc).__name__}: {exc}"

    def _text(self, op: Op) -> str:
        return (self.run_dir / op.out).read_text(encoding="utf-8")

    def _observe(self, op: Op, result: object) -> object:
        if op.kind == "theorem":
            return (result.chains_checked, result.min_alpha, result.bound_ok,
                    mask_digest(result.argmin_chain))
        if op.kind == "family":
            return (result.max_free_size, sorted(g.mask for g in result.family), result.pair)
        if result != 0:
            return ("exit", result)
        if op.kind == "search":  # the timestamp is the only field allowed to change
            doc = json.loads(self._text(op).splitlines()[_search_index(op)])
            doc.pop("timestamp")
            return json.dumps(doc, sort_keys=True)
        return hashlib.sha256(self._text(op).encode()).hexdigest()

    def _gold(self, name: str, value: object) -> str | None:
        if not self.use_golden:
            return None
        if self.record:
            self.golden[name] = value
            return None
        if self.golden.get(name) != value:
            return f"{name}: {value!r} differs from golden {self.golden.get(name)!r}"
        return None

    def _full_check(self, op: Op, result: object) -> str | None:
        if op.kind in ("theorem", "family"):
            return getattr(self, f"_check_{op.kind}")(op, result)
        if result != 0:
            return f"{op.kind} {op.key}: exit code {result}"
        return getattr(self, f"_check_{op.kind}")(op)

    def _check_gen(self, op: Op) -> str | None:
        chain = cc.read_chain(self._text(op))
        argv = op.argv
        n, r = int(argv[argv.index("--n") + 1]), int(argv[argv.index("--r") + 1])
        masks = [g.mask for g in chain.graphs]
        if (chain.n, chain.r) != (n, r) or masks[0] != 0:
            return f"gen {op.key}: wrong shape or nonempty first graph"
        if any(a & ~b or a == b for a, b in zip(masks, masks[1:])):
            return f"gen {op.key}: graphs not strictly nested"
        if argv[argv.index("--step-dist") + 1] == "single" and any(
            b.bit_count() - a.bit_count() != 1 for a, b in zip(masks, masks[1:])
        ):
            return f"gen {op.key}: a single step added more than one edge"
        self.chains[op.key] = chain
        self.edges[op.key] = reference_edges(n, masks)
        if self.probe_chain is None or chain.r > self.probe_chain.r:
            self.probe_chain = chain
        return self._gold(f"{op.key}.masks", mask_digest(chain))

    def _check_derive(self, op: Op) -> str | None:
        dg = cc.read_difference_graph(self._text(op))
        edges = set(dg.edge_pairs())
        if dg.r != self.chains[op.key].r or edges != self.edges[op.key]:
            return f"derive {op.key}: edges differ from the reference difference graph"
        return self._gold(f"{op.key}.edges", edge_digest(edges))

    def _check_witness(self, op: Op) -> str | None:
        ws = cc.read_witness(self._text(op))
        r = self.chains[op.key].r
        fl = floors(r)
        indices = sorted(ws.indices)
        if not all(1 <= i <= r for i in indices) or not independent(self.edges[op.key], indices):
            return f"witness {op.key}: not an independent index set"
        if ws.guarantee != fl.get(ws.method) or len(indices) < max(fl.values()):
            return f"witness {op.key}: size {len(indices)} or floor {ws.guarantee} wrong for r={r}"
        self.witness[op.key] = len(indices)
        return None

    def _check_oracle(self, op: Op) -> str | None:
        doc = json.loads(self._text(op))
        alpha, optimum = doc["alpha"], doc["optimum"]
        if len(optimum) != alpha or not independent(self.edges[op.key], optimum):
            return f"oracle {op.key}: optimum is not an independent set of size alpha"
        if alpha < self.witness[op.key] or doc["nodes_explored"] < 1:
            return f"oracle {op.key}: alpha {alpha} below the witness size"
        return self._gold(f"{op.key}.alpha", alpha)

    def _check_verify(self, op: Op) -> str | None:
        doc = json.loads(self._text(op))
        if not doc["all_pass"] or not all(c["pass"] for c in doc.get("checks", [])):
            return f"verify {op.key}: not all checks pass"
        if doc["subject"] == "records":
            ok = doc["records"] == ANNEAL_SEARCHES and doc["alpha_recomputed"] is True
        else:
            names = {c["name"] for c in doc["checks"]}
            ok = doc["r"] == self.chains[op.key].r and names == {
                "lemma-abcd", "lemma-123", "triangle-free", "witness-greedy-good",
                "witness-alon-triples", "oracle-alpha"}
        return None if ok else f"verify {op.key}: incomplete report"

    def _check_search(self, op: Op) -> str | None:
        records = cc.load_records(self.run_dir / op.out)  # read after the whole pass
        if len(records) != ANNEAL_SEARCHES:
            return f"search {op.key}: {len(records)} records in the file"
        rec = records[_search_index(op)]
        n, r, budget = ANNEAL
        chain = rec.chain
        masks = [g.mask for g in chain.graphs]
        seed = int(op.argv[op.argv.index("--seed") + 1])
        if (chain.n, chain.r, rec.budget, rec.seed) != (n, r, budget, seed) \
                or rec.ratio != Fraction(rec.alpha, r):
            return "search: record does not match its configuration"
        if rec.alpha < floors(r)["alon-triples"]:
            return f"search: alpha {rec.alpha} below the proven floor"
        self.chains[op.key] = chain
        self.edges[op.key] = reference_edges(n, masks)
        self.probe_chain = chain
        return None

    def _check_theorem(self, op: Op, report: cc.TheoremReport) -> str | None:
        n, r = op.argv
        argmin = report.argmin_chain
        edges = reference_edges(n, [g.mask for g in argmin.graphs])
        if report.chains_checked != chain_count(comb(n, 2), r) or not report.bound_ok:
            return f"theorem {op.key}: {report.chains_checked} chains checked"
        if (argmin.n, argmin.r) != (n, r) or reference_alpha(r, edges) != report.min_alpha:
            return f"theorem {op.key}: argmin chain does not have alpha {report.min_alpha}"
        if self.probe_chain is None or r > self.probe_chain.r:
            self.probe_chain = argmin
        return self._gold(f"{op.key}", [report.chains_checked, report.min_alpha])

    def _check_family(self, op: Op, report: cc.FamilyReport) -> str | None:
        (n,) = op.argv
        family = [g.mask for g in report.family]
        if report.n != n or len(set(family)) != report.max_free_size or report.pair is not None:
            return f"family {op.key}: family size does not match"
        for g in family:
            for h in family:
                if g != h and not g & ~h and _is_clique(n, h & ~g):
                    return f"family {op.key}: family holds a clique pair"
        return self._gold(f"{op.key}", report.max_free_size)

    def save_golden(self) -> None:
        GOLDEN_PATH.write_text(json.dumps(self.stored, indent=1, sort_keys=True) + "\n",
                               encoding="utf-8")
