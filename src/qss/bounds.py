"""Entropy-based existence and impossibility bounds for threshold schemes.

Two curves as a function of the field size q:

* random_threshold_alpha: smallest alpha with H_{q^2}(1 - alpha) < 1/2; above
  it a uniformly random multigraph realises an ((alpha*n, n))_q scheme with
  probability approaching 1.
* asymptotic_lower_bound: smallest alpha satisfying
  H_2((alpha*q + 1)/(q + 1)) + alpha*H_2((1 - alpha)/alpha) >= H_2(alpha);
  below it no ((alpha*n, n))_q graph scheme can exist for large n.

The finite-n impossibility test uses exact integer binomials only.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .fqlinalg import is_prime

_BISECT_CAP = 200


def entropy(x: float, base: float) -> float:
    """base-ary entropy H_base(x) = x log(base-1) - x log x - (1-x) log(1-x),
    logs in the given base, extended by continuity at x in {0, 1}."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"entropy argument {x} outside [0, 1]")
    if base < 2:
        raise ValueError(f"entropy base must be >= 2, got {base}")
    lb = math.log(base)
    out = 0.0
    if x > 0.0:
        out += x * math.log(base - 1) / lb - x * math.log(x) / lb
    if x < 1.0:
        out -= (1.0 - x) * math.log(1.0 - x) / lb
    return out


def _bisect(f, lo: float, hi: float, tol: float) -> float:
    """Bisection for the smallest alpha in (lo, hi] with f(alpha) True.

    f must be monotone (False then True) on the bracket; f(hi) must hold.
    Returns the True endpoint, so the guarantee f(result) holds exactly.
    """
    if not f(hi):
        raise ValueError("upper bracket does not satisfy the predicate")
    for _ in range(_BISECT_CAP):
        if hi - lo <= tol:
            break
        mid = (lo + hi) / 2
        if f(mid):
            hi = mid
        else:
            lo = mid
    return hi


def random_threshold_alpha(q: int, tol: float = 1e-8) -> float:
    """Minimal alpha with H_{q^2}(1 - alpha) strictly below 1/2.

    The random-scheme theorem is stated for prime q, but the threshold
    formula is well defined for any q >= 2 and the curve is often read at
    intermediate points, so only q >= 2 is required here.
    """
    if q < 2:
        raise ValueError(f"field size q must be >= 2, got {q}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    base = q * q

    def ok(alpha: float) -> bool:
        return entropy(1.0 - alpha, base) < 0.5

    return _bisect(ok, 0.5, 1.0, tol)


def asymptotic_lower_bound(q: int, tol: float = 1e-8) -> float:
    """Minimal alpha in (0.5, 1) satisfying the impossibility inequality
    H_2((alpha*q + 1)/(q + 1)) + alpha*H_2((1 - alpha)/alpha) >= H_2(alpha).

    Every ((k, n))_q graph scheme must have k/n at least this value
    asymptotically. As with random_threshold_alpha the formula extends to
    any q >= 2, which lets the curve be sampled between primes.
    """
    if q < 2:
        raise ValueError(f"field size q must be >= 2, got {q}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tol}")

    def ok(alpha: float) -> bool:
        lhs = entropy((alpha * q + 1) / (q + 1), 2) + alpha * entropy((1 - alpha) / alpha, 2)
        return lhs >= entropy(alpha, 2)

    # At alpha -> 0.5+ the inequality fails (lhs < 1 = H_2(0.5)); at 1 it
    # holds (H_2(1) = 0). Bisect on that bracket.
    return _bisect(ok, 0.5, 1.0 - 1e-12, tol)


def _binom_rounded(n: int, x: Fraction) -> int:
    """max over floor/ceil roundings of C(n, x) for a possibly fractional x.

    Used on the large side of the impossibility inequality so that rounding
    can only make the inequality easier to satisfy: a violated inequality is
    then violated for every integer reading, and no feasible k is ever
    excluded by rounding alone.
    """
    lo = math.floor(x)
    hi = math.ceil(x)
    vals = [math.comb(n, v) for v in (lo, hi) if 0 <= v <= n]
    return max(vals) if vals else 0


def finite_inequality_holds(n: int, q: int, k: int) -> bool:
    """Exact test of the finite-n existence inequality at alpha = k/n:

        C(n, (1-alpha)*q*n/(q+1)) * C(k, 2k - n) >= (2*alpha - 1)*(1 - alpha)/2 * C(n, k)

    Fractional binomial arguments are rounded in the direction that favours
    the left side, arithmetic is exact (integers and Fractions), so False
    really means no ((k, n))_q scheme exists. The stated constant is used:
    the derivation's constant (1 - alpha)*(1 + alpha*q)/((2*alpha - 1)*(q + 1))
    gives the opposite verdict at (n, q, k) = (100, 2, 51), (400, 2, 202)
    and (400, 3, 201), where the stated form holds and the derivation's fails.
    """
    alpha = Fraction(k, n)
    lhs = _binom_rounded(n, (1 - alpha) * q * n / Fraction(q + 1))
    lhs *= math.comb(k, 2 * k - n) if 2 * k - n >= 0 else 0
    return lhs >= (2 * alpha - 1) * (1 - alpha) / 2 * math.comb(n, k)


def finite_lower_bound(n: int, q: int) -> int:
    """Largest k whose alpha = k/n violates the finite inequality, i.e. the
    strongest threshold ruled out at this order. 0 when nothing is ruled out."""
    if n < 2:
        raise ValueError("need at least a dealer and one player")
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    out = 0
    for k in range(1, n):
        if not finite_inequality_holds(n, q, k):
            out = k
    return out


def _primes_between(lo: int, hi: int) -> list[int]:
    return [p for p in range(max(2, lo), hi + 1) if is_prime(p)]


def emit_curve(q_min: int, q_max: int, tol: float = 1e-8) -> str:
    """CSV of both alpha curves over the primes in [q_min, q_max].

    Header is exactly `q,alpha_lower,alpha_random_threshold`; rows ascend in
    q.

    Raises:
        ValueError: when no prime lies in [q_min, q_max], an inverted range
            included.
    """
    primes = _primes_between(q_min, q_max)
    if not primes:
        raise ValueError(f"no prime q in [{q_min}, {q_max}]")
    lines = ["q,alpha_lower,alpha_random_threshold"]
    for p in primes:
        lower = asymptotic_lower_bound(p, tol)
        rnd = random_threshold_alpha(p, tol)
        lines.append(f"{p},{lower:.10f},{rnd:.10f}")
    return "\n".join(lines) + "\n"
