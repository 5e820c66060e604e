"""Command-line entry point; every subcommand is a thin adapter over the library.

Output is machine-first JSON in the same canonical encodings the library
produces (--pretty re-indents it); diagnostics go to stderr. Exit codes:
0 success, 1 domain errors such as validation failures or infeasible
parameters, 2 usage errors.

The argument parser is built on the first run_cli call and reused for every
later call in the same process, so in-process callers pay for it once.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from pathlib import Path

from .chains import (
    SINGLE_STEP,
    StepDistribution,
    enumerate_chains,
    random_chain,
    read_chain,
    write_chain,
)
from .derived import build_difference_graph, write_difference_graph
from .oracle import (
    certify_difference_graph,
    max_cliquepair_free_family,
    max_independent_set,
    write_family_report,
    write_oracle_report,
)
from .search import (
    SearchConfig,
    _load_records_or_chain,
    append_record,
    local_search_min_ratio,
    write_record,
)
from .witness import alon_witness, best_witness, greedy_good_witness, write_witness

VERIFY_FORMAT = "chaincliq-verify-v1"

_WITNESS_METHODS = {
    "greedy": greedy_good_witness,
    "alon": alon_witness,
    "best": best_witness,
}


def _parse_step_dist(text: str) -> StepDistribution:
    if text == "single":
        return SINGLE_STEP
    if text.startswith("geometric:"):
        try:
            p = float(text.split(":", 1)[1])
            return StepDistribution("geometric", p)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    raise argparse.ArgumentTypeError("expected 'single' or 'geometric:P' with P in (0, 1]")


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaincliq",
        description="Difference graphs of nested graph chains: generation, "
        "witnesses, exact oracles, and extremal search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse._ActionsContainer, pretty: bool = True) -> None:
        p.add_argument("--out", metavar="PATH", help="write the result here instead of stdout")
        if pretty:
            p.add_argument("--pretty", action="store_true", help="indent the JSON output")

    p = sub.add_parser("gen", help="generate a seeded random chain")
    p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--r", type=int, required=True, help="chain length")
    p.add_argument("--seed", type=int, default=0, help="64-bit seed (default 0)")
    p.add_argument(
        "--step-dist",
        type=_parse_step_dist,
        default=SINGLE_STEP,
        metavar="DIST",
        help="single or geometric:P (default single)",
    )
    common(p)

    p = sub.add_parser("derive", help="build the difference graph of a chain")
    p.add_argument("--in", dest="infile", required=True, metavar="PATH", help="chain document")
    common(p)

    p = sub.add_parser("witness", help="extract an independent set from a chain")
    p.add_argument("--in", dest="infile", required=True, metavar="PATH", help="chain document")
    p.add_argument(
        "--method", choices=sorted(_WITNESS_METHODS), default="best", help="extraction method"
    )
    common(p)

    p = sub.add_parser("oracle", help="exact independence number of a chain")
    p.add_argument("--in", dest="infile", required=True, metavar="PATH", help="chain document")
    common(p)

    p = sub.add_parser("verify", help="check a chain document or a records file")
    p.add_argument(
        "--in", dest="infile", required=True, metavar="PATH", help="chain document or records file"
    )
    p.add_argument(
        "--verify",
        action="store_true",
        help="records files only: also recompute each stored alpha "
        "(a chain document's alpha is always recomputed)",
    )
    common(p)

    p = sub.add_parser("enumerate", help="stream every chain of a given (n, r)")
    p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--r", type=int, required=True, help="chain length")
    common(p, pretty=False)

    p = sub.add_parser("conjecture", help="largest clique-pair-free family of graphs")
    p.add_argument("--n", type=int, required=True, help="vertex count (at most 4)")
    common(p)

    p = sub.add_parser("search", help="seeded descent for chains with a small independence ratio")
    p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--r", type=int, required=True, help="chain length")
    p.add_argument("--budget", type=int, default=10_000, help="move proposals, rejected ones included (default 10000)")
    p.add_argument("--seed", type=int, default=0, help="64-bit seed (default 0)")
    group = p.add_mutually_exclusive_group()  # a records file keeps one record per line
    group.add_argument("--out", metavar="PATH", help="append the record to this records file")
    group.add_argument("--pretty", action="store_true", help="indent the JSON output")

    return parser


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.pretty:
        text = json.dumps(json.loads(text), indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _cmd_gen(args: argparse.Namespace) -> int:
    chain = random_chain(args.n, args.r, args.step_dist, args.seed)
    _emit(args, write_chain(chain))
    return 0


def _cmd_derive(args: argparse.Namespace) -> int:
    chain = read_chain(Path(args.infile).read_text(encoding="utf-8"))
    _emit(args, write_difference_graph(build_difference_graph(chain)))
    return 0


def _cmd_witness(args: argparse.Namespace) -> int:
    chain = read_chain(Path(args.infile).read_text(encoding="utf-8"))
    ws = _WITNESS_METHODS[args.method](build_difference_graph(chain))
    _emit(args, write_witness(ws))
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    chain = read_chain(Path(args.infile).read_text(encoding="utf-8"))
    report = max_independent_set(build_difference_graph(chain))
    _emit(args, write_oracle_report(report))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    subject = _load_records_or_chain(args.infile, args.verify)
    if isinstance(subject, list):
        summary = {"format": VERIFY_FORMAT, "subject": "records",
                   "records": len(subject), "alpha_recomputed": bool(args.verify),
                   "all_pass": True}
        lines = [f"PASS records: {len(subject)} valid line(s)"]
    else:
        _, checks = certify_difference_graph(build_difference_graph(subject))
        summary = {"format": VERIFY_FORMAT, "subject": "chain", "r": subject.r,
                   "checks": checks, "all_pass": all(c["pass"] for c in checks)}
        lines = [f"{'PASS' if c['pass'] else 'FAIL'} {c['name']}: {c['detail']}" for c in checks]
    print("\n".join(lines), file=sys.stderr)
    _emit(args, json.dumps(summary))
    return 0 if summary["all_pass"] else 1


def _cmd_enumerate(args: argparse.Namespace) -> int:
    lines = (write_chain(c) for c in enumerate_chains(args.n, args.r))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line + "\n")
    else:
        for line in lines:
            print(line)
    return 0


def _cmd_conjecture(args: argparse.Namespace) -> int:
    report = max_cliquepair_free_family(args.n)
    _emit(args, write_family_report(report))
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    cfg = SearchConfig(n=args.n, r=args.r, budget=args.budget, seed=args.seed)
    record = local_search_min_ratio(cfg)
    if args.out:
        append_record(args.out, record)
        print(f"appended record (ratio {record.ratio}) to {args.out}", file=sys.stderr)
    else:
        _emit(args, write_record(record))
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "derive": _cmd_derive,
    "witness": _cmd_witness,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
    "enumerate": _cmd_enumerate,
    "conjecture": _cmd_conjecture,
    "search": _cmd_search,
}


def run_cli(argv: list[str]) -> int:
    """Run one chaincliq command and return its exit code.

    The parser is built on the first call and reused within the process;
    each call parses into a fresh namespace, so calls do not share state.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
