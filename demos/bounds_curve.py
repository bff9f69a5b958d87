"""
How large must the threshold be?
================================

Two curves govern ((k, n))_q graph schemes as n grows: an impossibility
bound (no scheme can have k/n below it) and a random-construction
threshold (above it, almost every random graph works). Both live strictly
between 1/2 and 1 and fall toward 1/2 as the field grows.
"""

from qss.bounds import (
    asymptotic_lower_bound,
    emit_curve,
    finite_inequality_holds,
    finite_lower_bound,
    random_threshold_alpha,
)

print("bound curve over the primes up to 23:\n")
print(emit_curve(2, 23))

# The gap between the two columns is the open territory: nobody knows
# whether schemes exist with ratios inside it.

a = asymptotic_lower_bound(5)
r = random_threshold_alpha(5)
print(f"q=5: impossibility at alpha >= {a:.7f}")
print(f"     random schemes at alpha >= {r:.7f}")

# At finite n the impossibility inequality can be evaluated exactly with
# integer arithmetic. For 400 vertices over F_2 it rules out thresholds up
# to k = 201, one past the halfway point:
n, q = 400, 2
print(f"\nfinite bound at n={n}, q={q}: strongest excluded threshold is "
      f"k = {finite_lower_bound(n, q)}")
for k in (200, 201, 202, 203):
    holds = finite_inequality_holds(n, q, k)
    print(f"  k={k}: inequality {'holds (scheme not excluded)' if holds else 'violated (no such scheme)'}")

# At small orders the entropy inequality excludes nothing; the bound that
# bites is no-cloning: two disjoint sets never both recover a quantum
# secret, so k > players/2. For the 7 players of the ((4,7))_7 fixture,
# k <= 3 is already excluded and k = 4 is the least possible threshold:
players, q = 7, 7
print(f"\n{players} players over F_{q}: the finite bound excludes k <= {finite_lower_bound(players, q)}, "
      f"no-cloning excludes k <= {players // 2}, so k = {players // 2 + 1} is the least possible")
