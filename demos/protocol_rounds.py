"""
Running the sharing protocol on a dense simulator
=================================================

The rank verdicts promise that authorized sets decode perfectly and
unauthorized ones learn nothing. Here both promises are exercised on
actual state vectors: classical rounds in every dealer basis, an
eavesdropping attempt, and a full quantum teleport-out decode.
"""

import numpy as np

from qss.multigraph import Multigraph
from qss.oracle import cq_round, qq_decode_bell, qq_encode

star = Multigraph(3, [[0, 1, 1], [1, 0, 0], [1, 0, 0]])
rng = np.random.default_rng(11)

# --- classical rounds -------------------------------------------------------
# The dealer measures the Weyl operator X^t Z on their qudit of the graph
# state; the players in B measure their assigned Weyl operators and combine
# the outcomes with an affine map. Every measurement draws one uniform. For an authorized set the decoded digit
# equals the dealer's in every basis and every round.

print("classical rounds on the star, B = {1, 2}:")
for t in range(3):
    outcomes = [cq_round(star, 0, (1, 2), t, rng) for _ in range(8)]
    decoded = "".join(str(m) for _, m in outcomes)
    dealer = "".join(str(s) for s, _ in outcomes)
    print(f"  basis t={t}: dealer digits {dealer}  decoded {decoded}")

# --- an unauthorized set tries anyway ---------------------------------------
# A path graph 0-1-2 with B = {2}: the set is blocked (pi = 0). Forcing the
# round through, each player measuring Z, produces outcomes that are
# statistically independent of the dealer digit.

path = Multigraph(3, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
counts = np.zeros((3, 3))
for _ in range(600):
    s, m = cq_round(path, 0, (2,), 0, rng, on_unauthorized="measure")
    counts[s, m] += 1

joint = counts / counts.sum()
px = joint.sum(axis=1, keepdims=True)
py = joint.sum(axis=0, keepdims=True)
mask = joint > 0
mi = float((joint[mask] * np.log2(joint[mask] / (px @ py)[mask])).sum())
print(f"\nblocked set on the path graph: joint counts over 600 rounds\n{counts}")
print(f"empirical mutual information: {mi:.4f} bits (plug-in estimate, ~0)")

# --- quantum decoding -------------------------------------------------------
# Encode an arbitrary qutrit and let the full set teleport it back out
# through a Bell pair. The syndrome steers a Weyl correction; the fidelity
# against the original secret is 1 up to numerical noise. The syndromes are
# two Weyl measurements, as is the Bell measurement of the appendix encoding
# E1, which undoes the Bell preparation on (secret, dealer) and measures Z
# on both sites.

secret = rng.normal(size=3) + 1j * rng.normal(size=3)
secret = secret / np.linalg.norm(secret)
encoded = qq_encode(star, 0, secret)
res = qq_decode_bell(star, 0, (1, 2), encoded, rng, expected=secret)
print(f"\nquantum decode by B = {{1, 2}}: fidelity {res.fidelity:.15f}, "
      f"syndrome {res.syndrome}")

# A lone player holds a classically-readable but quantum-blocked share:
res_partial = qq_decode_bell(star, 0, (1,), encoded, rng, expected=secret)
print(f"quantum decode by B = {{1}}:    fidelity {res_partial.fidelity:.15f} "
      f"(fallback used: {res_partial.used_fallback})")
