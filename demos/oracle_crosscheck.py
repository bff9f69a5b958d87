"""Cross-validate the rank algebra against the dense simulator.

For random graphs, every (dealer, player set) pair is judged twice: once by
the cut-rank indicators and once by brute-force quantum mechanics (trace
distances between codeword densities, Bell-decode fidelity). The two sides
are not fully independent: the Bell decode steers with the witnesses D and C
that the rank machinery solves. A decode fidelity of 1 certifies access by
actually recovering the secret, while the no-information verdict rests on
the trace distances, which use no rank algebra.
"""

import argparse

import numpy as np

from qss.multigraph import random_graph
from qss.oracle import oracle_reports


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--graphs", type=int, default=25)
    ap.add_argument("--q", type=int, default=3, choices=[2, 3, 5])
    ap.add_argument("--max-n", type=int, default=5)
    ap.add_argument("--seed", type=int, default=2024)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    agree = disagree = 0
    for i in range(args.graphs):
        n = int(rng.integers(2, args.max_n + 1))
        g = random_graph(n, args.q, rng)
        while any(g.degree(v) == 0 for v in range(n)):
            g = random_graph(n, args.q, rng)
        for d in range(n):
            players = [v for v in range(n) if v != d]
            # every subset of players, encoded as a bitmask
            sets = [[players[j] for j in range(len(players)) if bits >> j & 1] for bits in range(2 ** len(players))]
            for b, row in zip(sets, oracle_reports(g, d, sets, rng)):
                same = row["verdict_graph"] == row["verdict_oracle"]
                agree += int(same)
                disagree += int(not same)
                if not same:
                    print(f"DISAGREEMENT graph {i} dealer {d} B={b}: {row}")
        if (i + 1) % 5 == 0:
            print(f"  {i + 1}/{args.graphs} graphs done, {agree} verdicts agree")

    print(f"\n{agree} agreements, {disagree} disagreements")
    if disagree == 0:
        print("rank algebra and simulator tell the same story on every instance")
    return 1 if disagree else 0


if __name__ == "__main__":
    raise SystemExit(main())
