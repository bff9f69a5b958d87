"""
Deciding who can read the secret, without touching a state vector
=================================================================

A dealer encodes a secret into a graph state over F_q. Whether a set of
players can recover it is a pure rank question about the adjacency matrix:
compare the cut rank of the set with and without the dealer.
"""

import itertools

import numpy as np

from qss.access import classify, cutrank, pi_classical, quantum_derivative
from qss.multigraph import Multigraph, rs747_fixture

# A minimal example first: one dealer (vertex 0) connected to two players.
star = Multigraph(3, [[0, 1, 1], [1, 0, 0], [1, 0, 0]])

print("three-vertex star over F_3, dealer 0")
for b in [(), (1,), (1, 2)]:
    v = classify(star, 0, b)
    print(
        f"  B={b!r:8} pi={v.pi} derivative={v.derivative:+d} "
        f"classical={v.classical:12} quantum={v.quantum}"
    )

# pi = 1 says the set can reconstruct the classical secret; derivative -1
# says it can reconstruct the full quantum state. Both players together get
# everything, one player alone gets the classical part only (the state is
# not private against her, but she cannot steer it), nobody gets nothing.

# The witnesses behind the verdicts are explicit multisets, vectors of
# multiplicities mod q, one per vertex; printed by their nonzero entries:
v = classify(star, 0, (1, 2))
print("accessing multiset for B={1,2}:", {u: w for u, w in enumerate(v.witness_d.tolist()) if w})

# Now the seven-player fixture with a ((4,7))_7 threshold.
dg = rs747_fixture()
g, d = dg.graph, dg.dealer
players = [u for u in range(g.n) if u != d]

print(f"\nseven-player graph over F_{g.q}, dealer {d}")
print("cut rank of {1,2,3,7}:", cutrank(g, [1, 2, 3, 7]))

counts = {-1: 0, 0: 0, 1: 0}
by_size = {}
for r in range(len(players) + 1):
    for b in itertools.combinations(players, r):
        der = quantum_derivative(g, d, b)
        counts[der] += 1
        by_size.setdefault(r, []).append(der)

print("derivative histogram over all 128 player sets:", counts)
for r, ders in sorted(by_size.items()):
    access = sum(1 for x in ders if x == -1)
    print(f"  size {r}: {access}/{len(ders)} sets recover the quantum secret")

# Every 4-of-7 set succeeds and no 3-of-7 set does: a sharp threshold.
# The same information read classically:
three = (1, 2, 3)
four = (1, 2, 3, 7)
print(f"pi({three}) = {pi_classical(g, d, three)}  (no classical leak)")
print(f"pi({four}) = {pi_classical(g, d, four)}  (full classical access)")

# Self-duality of the derivative: a set recovers the secret exactly when
# its complement is denied it.
rng = np.random.default_rng(7)
for _ in range(3):
    size = int(rng.integers(0, 8))
    b = tuple(sorted(rng.choice(players, size=size, replace=False).tolist()))
    comp = tuple(u for u in players if u not in b)
    print(
        f"derivative B={b} -> {quantum_derivative(g, d, b):+d}, "
        f"complement -> {quantum_derivative(g, d, comp):+d}"
    )
