"""The independence floor as an executable statement, checked exhaustively.

For every chain of length r the difference graph has an independent set
of at least max(1, ceil(floor(r/3)/2)) indices. At desk scale this is
checkable by enumerating every chain of a given (n, r), solving each
instance exactly, and recording the worst case. The sweep also runs both
witness extractors and both structural verifiers once per distinct
difference graph (the only thing any of them depends on), so a single
discrepancy anywhere would abort it.
"""

import sys
import time
from math import comb
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from chaincliq import alon_guarantee, verify_theorem_exhaustive, write_theorem_report

print("=" * 72)
print("Exhaustive sweep over every chain of each (n, r)")
print("=" * 72)
print(f"{'n':>3} {'r':>3} {'chains':>8} {'min alpha':>10} {'floor':>6} {'ok':>4} {'secs':>6}")

for n in (2, 3, 4):
    for r in range(1, comb(n, 2) + 2):
        t0 = time.perf_counter()
        report = verify_theorem_exhaustive(n, r)
        dt = time.perf_counter() - t0
        print(
            f"{n:>3} {r:>3} {report.chains_checked:>8} {report.min_alpha:>10} "
            f"{alon_guarantee(r):>6} {str(report.bound_ok):>4} {dt:>6.2f}"
        )

report = verify_theorem_exhaustive(3, 4)
print("\nworst chain found for n=3, r=4 (as a report document):")
print(write_theorem_report(report))
