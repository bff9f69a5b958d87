"""Entropy curves and the exact finite-n impossibility inequality."""

import math

import pytest

from qss.bounds import (
    asymptotic_lower_bound,
    emit_curve,
    entropy,
    finite_inequality_holds,
    finite_lower_bound,
    random_threshold_alpha,
)


# -------------------------------------------------------------------- entropy


def test_entropy_reference_points():
    assert entropy(0.5, 2) == pytest.approx(1.0)
    assert entropy(0.75, 4) == pytest.approx(1.0)
    assert entropy(0.0, 2) == 0.0
    assert entropy(1.0, 2) == 0.0
    for base in (3, 4, 9, 49):
        assert entropy(1.0, base) == pytest.approx(math.log(base - 1, base))


def test_entropy_peak_location():
    # maximum of H_base sits at (base-1)/base with value 1
    for base in (2, 4, 25):
        x = (base - 1) / base
        assert entropy(x, base) == pytest.approx(1.0)
        assert entropy(x - 0.05, base) < 1.0
        assert entropy(min(x + 0.05, 1.0), base) < 1.0


def test_entropy_validation():
    with pytest.raises(ValueError, match="outside"):
        entropy(-0.1, 2)
    with pytest.raises(ValueError, match="outside"):
        entropy(1.1, 2)
    with pytest.raises(ValueError, match="base"):
        entropy(0.5, 1.5)


# --------------------------------------------------------------- alpha curves


FROZEN_CURVE = {
    2: (0.5063762, 0.8107104),
    3: (0.5030224, 0.7448119),
    5: (0.5011118, 0.6887068),
    7: (0.5005602, 0.6624964),
    11: (0.5002182, 0.6360817),
    13: (0.5001532, 0.6282084),
}


def test_alpha_curve_frozen_values():
    for q, (lower, rnd) in FROZEN_CURVE.items():
        assert asymptotic_lower_bound(q) == pytest.approx(lower, abs=2e-7)
        assert random_threshold_alpha(q) == pytest.approx(rnd, abs=2e-7)


def test_random_threshold_guarantee_holds_at_result():
    # the returned alpha itself satisfies the strict inequality
    for q in (2, 3, 5, 7):
        a = random_threshold_alpha(q)
        assert entropy(1.0 - a, q * q) < 0.5


def test_asymptotic_bound_guarantee_holds_at_result():
    for q in (2, 3, 5, 7):
        a = asymptotic_lower_bound(q)
        lhs = entropy((a * q + 1) / (q + 1), 2) + a * entropy((1 - a) / a, 2)
        assert lhs >= entropy(a, 2)


def test_alpha_curves_decrease_with_q_and_leave_window():
    qs = [2, 3, 5, 7, 11, 13]
    lowers = [asymptotic_lower_bound(q) for q in qs]
    rnds = [random_threshold_alpha(q) for q in qs]
    assert lowers == sorted(lowers, reverse=True)
    assert rnds == sorted(rnds, reverse=True)
    # existence window between impossibility and random-success curves
    for lo, hi in zip(lowers, rnds):
        assert 0.5 < lo < hi < 1.0


def test_bisection_matches_grid_scan_q2():
    a = random_threshold_alpha(2, tol=1e-8)
    step = 1e-4
    grid = 1.0
    x = 0.5
    while x <= 1.0:
        if entropy(1.0 - x, 4) < 0.5:
            grid = x
            break
        x += step
    assert abs(a - grid) <= step + 1e-8


def test_bounds_tolerance_cauchy():
    for tol in (1e-4, 1e-6):
        for fn in (random_threshold_alpha, asymptotic_lower_bound):
            a = fn(3, tol=tol)
            b = fn(3, tol=tol / 10)
            assert abs(a - b) < tol


def test_nonprime_q_curve_sampling():
    # the curves extend off the primes; q=30 sits essentially at 1/2
    r = asymptotic_lower_bound(30)
    assert abs(r - 0.5) < 5e-4
    assert random_threshold_alpha(30) == pytest.approx(0.5989350, abs=1e-6)


def test_curve_validation():
    with pytest.raises(ValueError, match=">= 2"):
        random_threshold_alpha(1)
    with pytest.raises(ValueError, match=">= 2"):
        asymptotic_lower_bound(0)
    with pytest.raises(ValueError, match="tolerance"):
        random_threshold_alpha(3, tol=0.0)
    for tol in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            random_threshold_alpha(3, tol=tol)
        with pytest.raises(ValueError, match="finite and positive"):
            asymptotic_lower_bound(3, tol=tol)


# ----------------------------------------------------------- finite inequality


def test_finite_inequality_nothing_ruled_out_small():
    assert finite_lower_bound(7, 7) == 0
    assert all(finite_inequality_holds(7, 7, k) for k in range(1, 7))


def test_finite_lower_bound_frozen_values():
    assert finite_lower_bound(400, 2) == 201
    assert finite_lower_bound(800, 2) == 404


def test_finite_lower_bound_boundary_is_sharp():
    assert not finite_inequality_holds(400, 2, 201)
    assert finite_inequality_holds(400, 2, 202)
    assert all(finite_inequality_holds(400, 2, k) for k in range(202, 400))


def test_finite_ratio_approaches_asymptotic_curve():
    ratio = finite_lower_bound(400, 2) / 400
    assert abs(ratio - asymptotic_lower_bound(2)) < 0.02


def test_finite_inequality_exactness_near_threshold():
    # the verdict flips between adjacent k, so float noise would be visible
    flips = 0
    prev = finite_inequality_holds(400, 2, 190)
    for k in range(191, 215):
        cur = finite_inequality_holds(400, 2, k)
        flips += cur != prev
        prev = cur
    assert flips == 2  # holds, violated on a contiguous run, holds again


def test_finite_lower_bound_validation():
    with pytest.raises(ValueError, match="prime"):
        finite_lower_bound(10, 4)
    with pytest.raises(ValueError, match="dealer"):
        finite_lower_bound(1, 2)


# ----------------------------------------------------------------------- curve


def test_emit_curve_header_and_frozen_rows():
    text = emit_curve(2, 7)
    lines = text.splitlines()
    assert lines[0] == "q,alpha_lower,alpha_random_threshold"
    assert lines[1] == "2,0.5063761547,0.8107103780"
    assert lines[2] == "3,0.5030223504,0.7448118553"
    assert lines[3] == "5,0.5011117533,0.6887068301"
    assert lines[4] == "7,0.5005602166,0.6624963731"
    assert len(lines) == 5
    assert text.endswith("\n")
