"""Benchmark of chaincliq: four seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {large,desk,anneal,sweep} --seed N --seconds S --trace {0,1}

The process runs the workload's op list pass after pass, as one closed-loop
caller, until S seconds of passes are measured, and checks every output
(see workloads.py). With --trace 0 it reports the end-to-end metrics of
BENCHMARK.json; with --trace 1 it alternates untraced and traced passes
and reports the per-layer metrics from the traced ones. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SCRATCH = BENCH_DIR / ".scratch"
SETUP_SAMPLES = 15
PROBE_EVERY_S = 0.1  # one speed probe per this much op time in an untraced pass
PROBE_REF_MS = 14.0  # the speed probe's time on the reference host (see host_factor)

sys.path.insert(0, str(BENCH_DIR.parent / "src"))
try:
    import chaincliq as cc
    import workloads as wl
    from tracer import Tracer
except ImportError as exc:
    cc = None
    IMPORT_ERROR = exc


def machine_info() -> str:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    return (f"nproc={os.cpu_count()} python={platform.python_version()} cpu={cpu} "
            f"chaincliq={cc.__version__}")


def calibrate() -> float:
    """Milliseconds for the speed probe: a fixed stdlib loop, no chaincliq code.

    The host is shared, and other tenants slow this process by 20-80% in
    phases that outlast a run; process CPU time grows with wall time, so
    the slowdown is the CPU running slower, not waiting. The probe, run
    between ops, slows with it. Of the probes tried (this loop, the
    reference difference-graph build and brute-force alpha of
    workloads.py, and a JSON round trip), it tracked the workloads' own
    times best.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc ^= i * i
    return (time.perf_counter() - t0) * 1e3


def setup_time(args: argparse.Namespace) -> float:
    """Seconds from starting a fresh interpreter to the workload being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=60)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


class Run:
    """One workload in one run directory: passes, their timings and their checks."""

    def __init__(self, workload: str, seed: int, run_dir: Path, record_golden: bool = False) -> None:
        self.ops = wl.op_list(workload, seed)
        wl.warm(self.ops)
        self.run_dir = run_dir
        self.checker = wl.Checker(workload, seed, run_dir, record=record_golden)
        self.pass_s: list[float] = []
        self.pass_latency: list[list[float]] = []
        self.chains_per_pass = 0
        self.calib_ms: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def one_pass(self, tracer: Tracer | None = None) -> float:
        """Run every op once and check the outputs; a traced pass is not timed."""
        for stale in self.run_dir.iterdir():  # every pass starts from an empty directory
            stale.unlink()
        results = []
        if tracer:
            tracer.reset()
            tracer.install()
        probe_s = owed = 0.0
        try:
            start = time.perf_counter()
            for op in self.ops:
                t0 = time.perf_counter()
                try:
                    result = wl.execute(op)
                except Exception as exc:  # an escaping exception is a failed op, not a crash
                    result = exc
                t1 = time.perf_counter()
                results.append((op, result, t1 - t0))
                owed += t1 - t0
                while tracer is None and owed >= PROBE_EVERY_S:
                    self.calib_ms.append(calibrate())
                    owed -= PROBE_EVERY_S
                probe_s += time.perf_counter() - t1
            wall = time.perf_counter() - start - probe_s
        finally:
            if tracer:
                tracer.uninstall()
        if tracer is None:
            self.pass_s.append(wall)
            self.pass_latency.append([elapsed for _, _, elapsed in results])
        chains = 0
        for op, result, _ in results:
            self.attempted += 1
            problem = (f"{op.kind} {op.key}: raised {result!r}" if isinstance(result, Exception)
                       else self.checker.check(op, result))
            if problem:
                self.failures.append(problem)
            if op.kind == "theorem" and problem is None:
                chains += result.chains_checked
        self.chains_per_pass = chains
        return wall


def host_factor(run: Run) -> float:
    """Reference-host time over this run's time for the speed probe.

    A time multiplied by the factor reads as on a host where the probe
    takes PROBE_REF_MS, about its lower quartile on the 2-core Xeon host
    the baseline was measured on. The lower quartile of the run's probes
    matches the best-of-passes op latencies it scales: both describe the
    host at its faster moments. A slower program still reads slower,
    because the probe is not chaincliq code.
    """
    return PROBE_REF_MS / statistics.quantiles(run.calib_ms, n=4)[0]


def best_latencies(run: Run) -> list[float]:
    """Each op's shortest latency over the run's passes.

    Contention only ever adds time, so the best of several passes is
    the steadiest estimate of what an op costs.
    """
    return [min(col) for col in zip(*run.pass_latency)]


def time_metrics(best: list[float], setup: list[float]) -> dict:
    cuts = statistics.quantiles(best, n=100, method="inclusive")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(best), "s"),
        "op_p50_ms": (cuts[49] * 1e3, "ms"),
        "op_p95_ms": (cuts[94] * 1e3, "ms"),
    }


def end_to_end(run: Run, setup: list[float]) -> tuple[dict, list[str]]:
    """Metrics from the untraced passes, times read as on the reference host."""
    best = best_latencies(run)
    raw = time_metrics(best, setup)
    factor = host_factor(run)
    metrics = {name: (value * factor, unit) for name, (value, unit) in raw.items()}
    # Not gated: on desk the median falls in the gap between the 200 ops at
    # (7,20) and the 200 at (12,60), so it is set by the slowest small op
    # and the fastest large one; it spread by 0.18 over ten runs of the same
    # code on the 2-core baseline host.
    p50 = metrics.pop("op_p50_ms")[0]
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    best = [t * factor for t in best]
    lines = [f"passes={len(run.pass_s)} ops/pass={len(run.ops)} setup_samples={len(setup)} "
             f"median pass {statistics.median(run.pass_s):.4f} s",
             f"host factor {factor:.4f} from {len(run.calib_ms)} speed probes",
             "as measured: " + " ".join(f"{name}={value:.6g} {unit}"
                                        for name, (value, unit) in raw.items()),
             f"op_p50_ms = {p50:.4f} ms (median host-adjusted best over the ops of a pass)"]
    by_kind: dict[str, list[float]] = {}
    samples: dict[str, list[float]] = {}
    for i, op in enumerate(run.ops):
        by_kind.setdefault(op.kind, []).append(best[i])
        samples.setdefault(op.kind, []).extend(lat[i] for lat in run.pass_latency)
    for kind in ("gen", "derive", "witness", "oracle", "verify"):
        if kind in by_kind:
            lines.append(f"{kind}_ms = {statistics.median(by_kind[kind]) * 1e3:.3f} ms (median "
                         f"host-adjusted best over {len(by_kind[kind])} op(s); median of all "
                         f"samples as measured {statistics.median(samples[kind]) * 1e3:.3f} ms)")
    if "search" in by_kind:
        moves = wl.ANNEAL[2] * len(by_kind["search"])
        lines.append(f"moves_per_s = {moves / sum(by_kind['search']):.1f} 1/s")
    if "theorem" in by_kind:
        lines.append(f"chains_per_s = {run.chains_per_pass / sum(by_kind['theorem']):.1f} 1/s")
    return metrics, lines


def result_hooks(counts: dict[str, float], ratios: list[float]) -> dict:
    def add(name: str, value: float) -> None:
        counts[name] = counts.get(name, 0) + value

    def witness(ws) -> None:
        ratios.append(len(ws.indices) / ws.guarantee)

    def search(rec) -> None:
        add("search.proposals", rec.budget)
        add("search.accepted", rec.move_trace_length)
        counts["search.best_ratio"] = min(float(rec.ratio), counts.get("search.best_ratio", 1.0))

    return {
        "derived.build_difference_graph": lambda dg: add("derived.pairs", dg.r * (dg.r - 1) // 2),
        "chains.write_chain": lambda text: add("chains.doc_bytes", len(text)),
        "chains.enumerate_chains": lambda chain: add("chains.enum_chains", 1),
        "oracle.max_independent_set": lambda rep: add("oracle.mis_nodes", rep.nodes_explored),
        "witness.greedy_good_witness": witness,
        "witness.alon_witness": witness,
        "witness.best_witness": witness,
        "search.local_search_min_ratio": search,
    }


def layer_metrics(summary: dict, counts: dict, ratios: list[float], wall: float) -> dict:
    incl, calls, self_s = summary["incl_s"], summary["calls"], summary["self_s"]
    ms = 1e3
    build_s = incl["derived.build_difference_graph"]
    proposals = counts.get("search.proposals", 0)
    m = {f"{layer}.self_ms": (self_s[layer] * ms, "ms") for layer in self_s}
    m.update({
        "cli.calls": (summary["entries"]["cli"], "count"),
        "chains.gen_ms": (incl["chains.random_chain"] * ms, "ms"),
        "chains.read_ms": (incl["chains.read_chain"] * ms, "ms"),
        "chains.write_ms": (incl["chains.write_chain"] * ms, "ms"),
        "chains.doc_bytes": (counts.get("chains.doc_bytes", 0), "bytes"),
        "chains.enum_chains": (counts.get("chains.enum_chains", 0), "count"),
        "chains.enum_ms": (incl["chains.enumerate_chains"] * ms, "ms"),
        "derived.build_ms": (build_s * ms, "ms"),
        "derived.build_calls": (calls["derived.build_difference_graph"], "count"),
        "derived.pairs_per_s": (counts.get("derived.pairs", 0) / build_s if build_s else 0.0, "1/s"),
        "derived.lemma_ms": (sum(incl[f"derived.{f}"] for f in
                                 ("verify_lemma_abcd", "verify_lemma_123", "find_triangle")) * ms,
                             "ms"),
        "derived.write_ms": (incl["derived.write_difference_graph"] * ms, "ms"),
        "witness.calls": (summary["entries"]["witness"], "count"),
        "witness.ms": (summary["entry_s"]["witness"] * ms, "ms"),
        "witness.size_over_floor": (statistics.fmean(ratios) if ratios else 0.0, "ratio"),
        "oracle.mis_calls": (calls["oracle.max_independent_set"], "count"),
        "oracle.mis_ms": (incl["oracle.max_independent_set"] * ms, "ms"),
        "oracle.mis_nodes": (counts.get("oracle.mis_nodes", 0), "count"),
        "oracle.sweep_ms": (incl["oracle.verify_theorem_exhaustive"] * ms, "ms"),
        "oracle.family_ms": (incl["oracle.max_cliquepair_free_family"] * ms, "ms"),
        "search.run_ms": (incl["search.local_search_min_ratio"] * ms, "ms"),
        "search.proposals": (proposals, "count"),
        "search.accepted": (counts.get("search.accepted", 0), "count"),
        "search.accept_rate": (counts.get("search.accepted", 0) / proposals if proposals else 0.0,
                               "ratio"),
        "search.best_ratio": (counts.get("search.best_ratio", 0.0), "ratio"),
        "trace.wall_ms": (wall * ms, "ms"),
        "trace.untraced_ms": ((wall - summary["top_s"]) * ms, "ms"),
    })
    return m


def clique_probe_us(chain, seed: int, samples: int = 2000, repeats: int = 5) -> float:
    """Microseconds per public is_clique(edge_difference(G_j, G_i)) on seeded index pairs."""
    rng = cc.SplitMix64(seed)
    pairs = []
    for _ in range(samples):
        i, j = rng.below(chain.r), rng.below(chain.r)
        pairs.append((chain.graphs[max(i, j)], chain.graphs[min(i, j)]))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for big, small in pairs:
            cc.is_clique(cc.edge_difference(big, small))
        times.append((time.perf_counter() - t0) / samples * 1e6)
    return statistics.median(times)


def eval_probe_ms(chain, repeats: int = 20) -> float:
    """Milliseconds for one search objective evaluation through public calls."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        cc.max_independent_set(cc.build_difference_graph(chain))
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def traced_run(run: Run, args: argparse.Namespace, info: str) -> tuple[dict, list[str]]:
    counts: dict[str, float] = {}
    ratios: list[float] = []
    tracer = Tracer(result_hooks(counts, ratios))
    untraced, traced = [], []
    measured = 0.0
    while measured < args.seconds or not traced:
        wall = run.one_pass()
        untraced.append(wall)
        counts.clear()
        ratios.clear()
        wall_traced = run.one_pass(tracer)
        metrics = layer_metrics(tracer.summarize(), counts, ratios, wall_traced)
        traced.append((wall_traced, metrics))
        measured += wall + wall_traced
    # report the traced pass of median wall, so its layer times add up to its wall
    wall_traced, metrics = sorted(traced, key=lambda t: t[0])[(len(traced) - 1) // 2]
    probe = run.checker.probe_chain
    metrics["graphs.clique_test_us"] = (clique_probe_us(probe, args.seed), "us")
    searched = any(op.kind == "search" for op in run.ops)
    metrics["search.eval_ms_est"] = (eval_probe_ms(probe) if searched else 0.0, "ms")
    metrics["trace.overhead_frac"] = (
        statistics.median(w for w, _ in traced) / statistics.median(untraced) - 1, "ratio")
    metrics["env.calib_ms"] = (statistics.median(run.calib_ms), "ms")
    spans = SCRATCH / f"trace-{args.workload}.tsv"
    tracer.write_spans(spans, f"# workload={args.workload} seed={args.seed} {info}")
    layers = sum(metrics[f"{layer}.self_ms"][0] for layer in ("cli", "chains", "graphs", "derived",
                                                              "witness", "oracle", "search"))
    lines = [f"traced passes={len(traced)} untraced passes={len(untraced)} spans -> {spans}",
             f"layer self times {layers:.3f} ms + untraced {metrics['trace.untraced_ms'][0]:.3f} ms"
             f" = traced wall {wall_traced * 1e3:.3f} ms"]
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("large", "desk", "anneal", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-golden", action="store_true",
                        help="store this run's checked values as the golden ones")
    args = parser.parse_args(argv)
    if cc is None:
        print(f"error: cannot import the benchmarked package: {IMPORT_ERROR}", file=sys.stderr)
        return 2
    run_dir = SCRATCH / f"run-{args.workload}-{os.getpid()}"
    if args.setup_only:
        wl.warm(wl.op_list(args.workload, args.seed))
        print("ready", flush=True)
        return 0
    run_dir.mkdir(parents=True)
    cwd = os.getcwd()
    try:
        os.chdir(run_dir)
        run = Run(args.workload, args.seed, run_dir, record_golden=args.write_golden)
        info = machine_info()
        with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stderr(sink):
            if args.trace:
                metrics, lines = traced_run(run, args, info)
            else:
                setup = []  # set-up probes spread over the run, one after each pass
                while sum(run.pass_s) < args.seconds or not run.pass_s:
                    run.one_pass()
                    if len(setup) < SETUP_SAMPLES:
                        setup.append(setup_time(args))
                setup += [setup_time(args) for _ in range(SETUP_SAMPLES - len(setup))]
                metrics, lines = end_to_end(run, setup)
                lines.append(f"env.calib_ms = {statistics.median(run.calib_ms):.3f} ms "
                             "(median of the speed probes)")
        if args.write_golden:
            run.checker.save_golden()
    finally:
        os.chdir(cwd)
        shutil.rmtree(run_dir, ignore_errors=True)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} {info}")
    lines.append(f"fail_frac = {len(run.failures) / run.attempted:.6f} "
                 f"({len(run.failures)} of {run.attempted} ops)")
    for line in lines:
        print(f"# {line}")
    for problem in run.failures[:20]:
        print(f"# FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
