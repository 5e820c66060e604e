"""The benchmark's anneal workload, run once through its own output checker.

A broken search record or `verify --verify` report then fails this suite,
not only a benchmark run. The checker verifies each record's consistency
only, so the searches' results are also pinned here.
"""

import sys
from pathlib import Path

import pytest

from chaincliq import SearchConfig, local_search_min_ratio
from strategies import chain_digest

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


ANNEAL_PINS = [  # (seed, alpha, move_trace_length, chain digest) per search op, in order
    (16294208416658607535, 28, 124, "a8b6963ae5883d18"),
    (7960286522194355700, 28, 124, "cef543622f506c95"),
    (487617019471545679, 28, 112, "6c4ae3075e96f428"),
    (17909611376780542444, 28, 129, "a33e4fc6150bd375"),
    (1961750202426094747, 28, 131, "74b0c9dc273aacea"),
    (6038094601263162090, 28, 143, "0ff229cd25cc76c1"),
    (3207296026000306913, 28, 136, "3d871ed4ba78a03b"),
    (14232521865600346940, 28, 126, "0961427ac49272af"),
    (4532161160992623299, 28, 118, "589aa99b3f656bc7"),
    (17561866513979060390, 28, 121, "399f7713af57ffdc"),
]


def _anneal_search_configs():
    configs = []
    for op in wl.op_list("anneal", 0):
        if op.kind == "search":
            configs.append(SearchConfig(*(int(op.argv[op.argv.index(flag) + 1])
                                          for flag in ("--n", "--r", "--budget", "--seed"))))
    return configs


def test_anneal_pins_cover_every_search_op():
    assert [cfg.seed for cfg in _anneal_search_configs()] == [pin[0] for pin in ANNEAL_PINS]


@pytest.mark.parametrize("k", range(len(ANNEAL_PINS)))
def test_anneal_search_results_are_pinned(k):
    cfg = _anneal_search_configs()[k]
    seed, alpha, accepted, digest = ANNEAL_PINS[k]
    assert (cfg.n, cfg.r, cfg.budget, cfg.seed) == (*wl.ANNEAL, seed)
    rec = local_search_min_ratio(cfg, timestamp="2026-01-01T00:00:00Z")
    assert (rec.alpha, rec.move_trace_length, chain_digest(rec.chain)) == (alpha, accepted, digest)
