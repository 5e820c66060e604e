"""Time the two library calls whose earlier measurements ROADMAP.md lists.

    python3 bench/crosscheck.py

Prints the median of five in-process timings of build_difference_graph
at n=30 r=300 and of local_search_min_ratio at n=11 r=56 budget=500,
each on seed 0, with the calibration loop of run.py beside them.
"""

import statistics
import time

import run  # also puts the package sources on sys.path

import chaincliq as cc


def median_ms(fn, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def main() -> None:
    chain = cc.random_chain(30, 300, cc.SINGLE_STEP, 0)
    config = cc.SearchConfig(n=11, r=56, budget=500, seed=0)
    rows = {
        "build_difference_graph n=30 r=300": median_ms(lambda: cc.build_difference_graph(chain)),
        "local_search_min_ratio n=11 r=56 budget=500": median_ms(
            lambda: cc.local_search_min_ratio(config, timestamp="")),
        "env.calib_ms": statistics.median(run.calibrate() for _ in range(5)),
    }
    print(run.machine_info())
    for name, value in rows.items():
        print(f"{name}: {value:.1f} ms")


if __name__ == "__main__":
    main()
