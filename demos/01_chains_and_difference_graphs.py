"""Chains of nested graphs and the graph their clique differences induce.

A chain is a sequence of distinct graphs on a fixed vertex set, each a
strict subgraph of the next. Its difference graph lives on the chain
indices: i and j are joined exactly when the edges added between step i
and step j form a clique. This script builds a few chains by hand and by
seeded generation, prints their difference graphs, and checks the two
structural laws those graphs always obey.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from chaincliq import (
    GraphChain,
    SINGLE_STEP,
    StepDistribution,
    build_difference_graph,
    find_triangle,
    make_graph,
    neighbor_counts,
    random_chain,
    reverse_chain,
    verify_lemma_123,
    verify_lemma_abcd,
    write_chain,
)

print("=" * 72)
print("A hand-built chain on 3 vertices")
print("=" * 72)

chain = GraphChain(
    3,
    (
        make_graph(3, [(1, 2)]).mask,
        make_graph(3, [(1, 2), (1, 3)]).mask,
        make_graph(3, [(1, 2), (1, 3), (2, 3)]).mask,
    ),
)
for i, g in enumerate(chain.graphs, 1):
    print(f"  G_{i}: {sorted(g.edges)}")

dg = build_difference_graph(chain)
print(f"\ndifference graph edges: {dg.edge_pairs()}")
print("  (1,3) is absent: the two edges added between steps 1 and 3 share")
print("  no common pair structure, they form a path, not a clique")
for i in range(1, dg.r + 1):
    left, right = neighbor_counts(dg, i)
    print(f"  index {i}: {left} left neighbor(s), {right} right neighbor(s)")

print("\n" + "=" * 72)
print("Seeded random chains reproduce exactly")
print("=" * 72)

seeded = random_chain(5, 8, SINGLE_STEP, seed=2024)
again = random_chain(5, 8, SINGLE_STEP, seed=2024)
print(f"  two runs identical: {seeded == again}")
print(f"  document: {write_chain(seeded)[:76]}...")

bursty = random_chain(6, 6, StepDistribution("geometric", 0.4), seed=7)
print(f"  geometric steps add bursts: sizes {[g.edge_count for g in bursty.graphs]}")

print("\n" + "=" * 72)
print("Structural laws, machine checked")
print("=" * 72)

for label, c in [("hand-built", chain), ("seeded n=5", seeded), ("bursty n=6", bursty)]:
    d = build_difference_graph(c)
    print(
        f"  {label}: closure check {verify_lemma_abcd(d)}, "
        f"consecutive-run check {verify_lemma_123(d)}, triangle {find_triangle(d)}"
    )
print("  (None everywhere: chain-built graphs always satisfy both laws and")
print("   are triangle-free; hand-crafted adjacency can and does fail them)")

print("\n" + "=" * 72)
print("Mirror symmetry")
print("=" * 72)

mirrored = reverse_chain(seeded)
orig = set(build_difference_graph(seeded).edge_pairs())
mirr = set(build_difference_graph(mirrored).edge_pairs())
r = seeded.r
print(f"  original edges : {sorted(orig)}")
print(f"  mirrored edges : {sorted(mirr)}")
print(f"  index-reversal of the original: {sorted((r + 1 - j, r + 1 - i) for i, j in orig)}")
print(f"  match: {mirr == {(r + 1 - j, r + 1 - i) for i, j in orig}}")
