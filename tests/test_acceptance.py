"""End-to-end acceptance suite; one PASS/FAIL line is printed per criterion.

The shared corpus is 10,000 seeded random chains spanning n in {3..7} with
mixed step distributions. Lengths span r in {1..25} capped per n by the
maximum chain length C(n, 2) + 1 (so r tops out at 22, reached at n = 7).
Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""

import json
import time
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from chaincliq import (
    Graph,
    SearchConfig,
    SplitMix64,
    StepDistribution,
    alon_guarantee,
    alon_witness,
    build_difference_graph,
    check_independent,
    enumerate_chains,
    family_has_clique_pair,
    find_triangle,
    greedy_good_witness,
    greedy_guarantee,
    local_search_min_ratio,
    max_cliquepair_free_family,
    max_independent_set,
    random_chain,
    read_chain,
    read_difference_graph,
    read_witness,
    relabel_chain,
    select_triples,
    verify_lemma_123,
    verify_lemma_abcd,
    verify_theorem_exhaustive,
    write_chain,
    write_difference_graph,
    write_record,
    write_witness,
)
from chaincliq.search import _record_from_doc

from strategies import naive_max_independent_set

CORPUS_SIZE = 10_000

_STEP_KINDS = (
    StepDistribution("single"),
    StepDistribution("geometric", 0.3),
    StepDistribution("geometric", 0.5),
    StepDistribution("geometric", 0.8),
)

_cache: dict = {}


def _corpus_chain(k):
    n = 3 + k % 5
    r = 1 + (k * 7919) % min(25, comb(n, 2) + 1)
    return random_chain(n, r, _STEP_KINDS[k % 4], k)


@pytest.fixture(scope="module")
def corpus():
    if "chains" not in _cache:
        _cache["chains"] = [_corpus_chain(k) for k in range(CORPUS_SIZE)]
    return _cache["chains"]


@pytest.fixture(scope="module")
def corpus_graphs(corpus):
    if "dgs" not in _cache:
        _cache["dgs"] = [build_difference_graph(c) for c in corpus]
    return _cache["dgs"]


def _report(num, label, ok, detail):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_lemma_suite(corpus):
    start = time.perf_counter()
    graphs = [build_difference_graph(c) for c in corpus]
    violations = 0
    for dg in graphs:
        if verify_lemma_abcd(dg) is not None:
            violations += 1
        if verify_lemma_123(dg) is not None:
            violations += 1
        if find_triangle(dg) is not None:
            violations += 1
    elapsed = time.perf_counter() - start
    _cache["dgs"] = graphs
    ok = violations == 0 and elapsed < 120.0
    _report(1, "lemma suite", ok, f"{len(graphs)} chains, {violations} violations, {elapsed:.1f}s")
    assert violations == 0
    assert elapsed < 120.0


def test_criterion_2_theorem_exhaustive():
    start = time.perf_counter()
    cases = [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (3, 4), *((4, r) for r in range(1, 8))]
    results = []
    for n, r in cases:
        report = verify_theorem_exhaustive(n, r)
        results.append(((n, r), report.chains_checked, report.min_alpha, report.bound_ok))
    elapsed = time.perf_counter() - start
    ok = all(bound_ok for *_, bound_ok in results) and elapsed < 300.0
    detail = "; ".join(
        f"n={n} r={r}: {checked} chains, min_alpha={alpha}"
        for (n, r), checked, alpha, _ in results
    )
    _report(2, "exhaustive floor sweep", ok, f"{detail}; {elapsed:.1f}s")
    for (n, r), _checked, alpha, bound_ok in results:
        assert bound_ok, f"floor failed at n={n}, r={r}"
        assert alpha >= alon_guarantee(r)
    assert elapsed < 300.0


def test_criterion_3_witness_bounds(corpus_graphs):
    violations = 0
    for dg in corpus_graphs:
        greedy = greedy_good_witness(dg)
        if not check_independent(dg, greedy.indices):
            violations += 1
        if len(greedy.indices) < greedy_guarantee(dg.r):
            violations += 1
        triples = alon_witness(dg)
        if not check_independent(dg, triples.indices):
            violations += 1
        if len(triples.indices) < alon_guarantee(dg.r):
            violations += 1
        if dg.r >= 3:
            selected = select_triples(dg)
            smask = 0
            for i in selected:
                smask |= 1 << (i - 1)
            for i in selected:
                within = dg.adj[i - 1] & smask
                if within >> i and within & ((1 << (i - 1)) - 1):
                    violations += 1
    ok = violations == 0
    _report(3, "witness floors", ok, f"{len(corpus_graphs)} chains, {violations} violations")
    assert violations == 0


def test_criterion_4_oracle_crosscheck(corpus_graphs):
    agree = 0
    for dg in corpus_graphs:
        if dg.r > 16 or agree >= 100:
            continue
        fast = max_independent_set(dg).alpha
        slow = naive_max_independent_set(dg).alpha
        assert fast == slow, f"solver disagreement at r={dg.r}: {fast} vs {slow}"
        agree += 1
    assert agree == 100
    dominated = 0
    for dg in corpus_graphs:
        report = max_independent_set(dg)
        assert check_independent(dg, report.optimum)
        assert len(report.optimum) == report.alpha
        if report.alpha >= len(greedy_good_witness(dg).indices) and report.alpha >= len(
            alon_witness(dg).indices
        ):
            dominated += 1
    ok = dominated == len(corpus_graphs)
    _report(
        4, "oracle cross-check", ok,
        f"100/100 exact agreements, alpha dominates witnesses on {dominated}/{len(corpus_graphs)}",
    )
    assert dominated == len(corpus_graphs)


def test_criterion_5_cliquepair_families():
    start = time.perf_counter()
    two = max_cliquepair_free_family(2)
    assert two.max_free_size == 1
    assert family_has_clique_pair(2, two.family) is None

    three = max_cliquepair_free_family(3)
    graphs = [Graph(3, mask) for mask in range(1 << comb(3, 2))]
    best = 0
    for size in range(len(graphs), 0, -1):
        if any(
            family_has_clique_pair(3, subset) is None
            for subset in combinations(graphs, size)
        ):
            best = size
            break
    assert three.max_free_size == best
    assert family_has_clique_pair(3, three.family) is None
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    _report(
        5, "clique-pair families", ok,
        f"n=2 size {two.max_free_size}, n=3 size {three.max_free_size} "
        f"(matches 2^8 enumeration), {elapsed:.1f}s",
    )
    assert ok


def test_criterion_6_determinism():
    checks = []
    for dist in _STEP_KINDS:
        a = random_chain(5, 7, dist, 42)
        b = random_chain(5, 7, dist, 42)
        checks.append(a == b and write_chain(a) == write_chain(b))

    cfg = SearchConfig(n=4, r=6, budget=400, seed=11)
    stamp = "2026-01-01T00:00:00Z"
    first = local_search_min_ratio(cfg, timestamp=stamp)
    second = local_search_min_ratio(cfg, timestamp=stamp)
    checks.append(first == second and write_record(first) == write_record(second))

    full_a = list(enumerate_chains(3, 3))
    full_b = list(enumerate_chains(3, 3))
    checks.append(full_a == full_b)
    checks.append(verify_theorem_exhaustive(3, 3) == verify_theorem_exhaustive(3, 3))
    ok = all(checks)
    _report(6, "determinism", ok, f"{len(checks)} double-run comparisons, all bit-identical")
    assert ok


def test_criterion_7_search_sanity():
    start = time.perf_counter()
    cfg = SearchConfig(n=5, r=8, budget=10_000, seed=7)
    record = local_search_min_ratio(cfg, timestamp="2026-01-01T00:00:00Z")
    dg = build_difference_graph(record.chain)
    assert max_independent_set(dg).alpha == record.alpha
    assert record.ratio == Fraction(record.alpha, 8)
    assert record.ratio >= Fraction(alon_guarantee(8), 8)

    rng = SplitMix64(99)
    moves = 0
    mismatches = 0
    while moves < 1_000:
        n = 3 + moves % 4
        r = 1 + moves % min(10, comb(n, 2) + 1)
        chain = random_chain(n, r, _STEP_KINDS[moves % 4], rng.next_u64())
        before = max_independent_set(build_difference_graph(chain)).alpha
        for _ in range(4):
            relabeled = relabel_chain(chain, rng.permutation(n))
            after = max_independent_set(build_difference_graph(relabeled)).alpha
            if after != before:
                mismatches += 1
            moves += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0
    _report(
        7, "search sanity", ok,
        f"alpha {record.alpha} reverified, ratio {record.ratio}, "
        f"{moves} relabel moves with {mismatches} mismatches, {elapsed:.1f}s",
    )
    assert mismatches == 0


def test_criterion_8_serialization(tmp_path, corpus):
    sample = corpus[::251]
    for chain in sample:
        text = write_chain(chain)
        assert read_chain(text) == chain
        assert write_chain(read_chain(text)) == text
        dg = build_difference_graph(chain)
        dg_text = write_difference_graph(dg)
        assert read_difference_graph(dg_text) == dg
        assert write_difference_graph(read_difference_graph(dg_text)) == dg_text
        ws = alon_witness(dg)
        ws_text = write_witness(ws)
        assert read_witness(ws_text) == ws
        assert write_witness(read_witness(ws_text)) == ws_text

    record = local_search_min_ratio(
        SearchConfig(n=4, r=5, budget=100, seed=2), timestamp="2026-01-01T00:00:00Z"
    )
    line = write_record(record)
    assert _record_from_doc(json.loads(line), verify=True) == record

    rejected = 0
    for reader, payload in [
        (read_chain, "{nope"),
        (read_chain, json.dumps({"format": "other", "n": 2, "graphs": [[]]})),
        (read_chain, json.dumps({"format": "chaincliq-chain-v1", "n": 3,
                                 "graphs": [[[1, 2]], [[1, 3]]]})),
        (read_chain, json.dumps({"format": "chaincliq-chain-v1", "n": 3,
                                 "graphs": [[[2, 1]]]})),
        (read_difference_graph, json.dumps({"format": "chaincliq-dgraph-v1", "r": 2,
                                            "edges": [[1, 3]]})),
        (read_witness, json.dumps({"format": "chaincliq-witness-v1", "method": "magic",
                                   "indices": [1], "guarantee": "1"})),
    ]:
        with pytest.raises(ValueError):
            reader(payload)
        rejected += 1
    _report(
        8, "serialization", True,
        f"{len(sample)} chains round-tripped across all formats, "
        f"{rejected} malformed documents rejected",
    )
