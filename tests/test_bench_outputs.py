"""The benchmark's anneal workload, run once through its own output checker.

A broken search record or `verify --verify` report then fails this suite,
not only a benchmark run.
"""

import sys
from pathlib import Path

BENCH = str(Path(__file__).resolve().parents[1] / "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import workloads as wl  # noqa: E402


def test_anneal_pass_outputs_are_correct(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the ops write their --out files relative to the run directory
    checker = wl.Checker("anneal", 0, tmp_path)
    ops = wl.op_list("anneal", 0)
    results = [(op, wl.execute(op)) for op in ops]
    assert [checker.check(op, result) for op, result in results] == [None] * len(ops)
