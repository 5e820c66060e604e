"""Self-tests of the benchmark: seeded op lists, reference code, and the output checker.

Run with `python3 -m pytest bench/test_bench.py` from the root of the repository.
"""

import json
from pathlib import Path

import run  # noqa: F401  (puts the package sources on sys.path)
import workloads as wl

import chaincliq as cc


def test_op_lists_are_a_pure_function_of_the_seed():
    for workload in wl.WORKLOADS:
        assert wl.op_list(workload, 7) == wl.op_list(workload, 7)
        assert wl.op_list(workload, 7) != wl.op_list(workload, 8)


def test_desk_covers_every_chain_subcommand():
    ops = wl.op_list("desk", 0)
    assert len(ops) == 400
    assert {op.kind for op in ops} == {"gen", "derive", "witness", "oracle", "verify"}


def test_anneal_runs_searches_from_distinct_seeds_then_one_verify():
    ops = wl.op_list("anneal", 0)
    assert [op.kind for op in ops] == ["search"] * wl.ANNEAL_SEARCHES + ["verify"]
    seeds = {op.argv[op.argv.index("--seed") + 1] for op in ops[:-1]}
    assert len(seeds) == wl.ANNEAL_SEARCHES
    assert {op.out for op in ops[:-1]} == {ops[-1].argv[ops[-1].argv.index("--in") + 1]}


def test_reference_difference_graph_matches_the_library():
    for seed in range(5):
        for dist in (cc.SINGLE_STEP, cc.StepDistribution("geometric", 0.5)):
            chain = cc.random_chain(9, 30, dist, seed)
            expected = set(cc.build_difference_graph(chain).edge_pairs())
            assert wl.reference_edges(9, [g.mask for g in chain.graphs]) == expected


def test_chain_count_matches_enumeration():
    for n, r in ((2, 2), (3, 2), (3, 4), (4, 3)):
        assert wl.chain_count(n * (n - 1) // 2, r) == sum(1 for _ in cc.enumerate_chains(n, r))


def _checked_chain(tmp_path: Path, monkeypatch) -> tuple[wl.Checker, wl.Op]:
    """Run gen, derive and witness of one desk chain and check them; return the oracle op."""
    monkeypatch.chdir(tmp_path)
    ops = wl.op_list("desk", 0)[:4]
    checker = wl.Checker("desk", 0, tmp_path)
    for op in ops[:3]:
        assert checker.check(op, wl.execute(op)) is None
    assert ops[3].kind == "oracle"
    assert wl.execute(ops[3]) == 0
    return checker, ops[3]


def _flip_alpha(path: Path) -> None:
    doc = json.loads(path.read_text())
    doc["alpha"] += 1
    path.write_text(json.dumps(doc) + "\n")


def test_checker_accepts_the_real_oracle_output(tmp_path, monkeypatch):
    checker, oracle = _checked_chain(tmp_path, monkeypatch)
    assert checker.check(oracle, 0) is None


def test_checker_rejects_a_flipped_alpha(tmp_path, monkeypatch):
    checker, oracle = _checked_chain(tmp_path, monkeypatch)
    _flip_alpha(tmp_path / oracle.out)
    assert checker.check(oracle, 0) is not None


def test_checker_rejects_a_later_pass_that_differs(tmp_path, monkeypatch):
    checker, oracle = _checked_chain(tmp_path, monkeypatch)
    assert checker.check(oracle, 0) is None
    _flip_alpha(tmp_path / oracle.out)
    assert "differs from the first pass" in checker.check(oracle, 0)


def test_checker_rejects_a_failed_exit():
    checker = wl.Checker("desk", 0, Path("."))
    assert checker.check(wl.op_list("desk", 0)[0], 1) is not None
