"""Acceptance gate: twelve numbered criteria, one printed verdict line each.

Every test prints `[criterion NN] PASS ...` or `[criterion NN] FAIL ...`
before asserting, so `pytest tests/test_acceptance.py -q -s` prints a
twelve-line scorecard. Under pytest's default fd capture the lines show only
in a failure report; `-s` turns capture off, and under `--capture=sys` the
copy written to `sys.__stdout__` reaches the terminal.

Criterion 08 checks the corrected witness-support bound
|sup(C)|*(q+1) <= q*(cutrk(B)+1) and asserts that the strict form
|sup(C)|*(q+1) < q*cutrk(B) is false, using the three-vertex star over F_3
as the counterexample. The README's acceptance-suite section has the
analysis.
"""

import functools
import itertools
import sys
import time

import numpy as np
import pytest

from qss.access import (
    _index_array,
    batch_indicators,
    cutrank,
    dealer_kernel_witness,
    min_support_kernel_element,
    pi_classical,
    quantum_derivative,
    witness_C,
    witness_D,
)
from qss.bounds import (
    asymptotic_lower_bound,
    finite_inequality_holds,
    finite_lower_bound,
    random_threshold_alpha,
)
from qss.multigraph import (
    DealerGraph,
    Multigraph,
    local_complement,
    random_graph,
    rs747_fixture,
)
from qss.oracle import (
    apply_controlled,
    apply_weyl,
    cq_round,
    encode_decode_variants,
    graph_state,
    oracle_reports,
    qq_encode,
    stabilizer_generator,
    state_fidelity,
    StateVector,
)
from qss.search import exhaustive_search, random_trials, scheme_k, _gamma_from_index

EXACT = 1e-9


def _check(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    if sys.stdout is not sys.__stdout__ and sys.__stdout__ is not None:
        print(line, file=sys.__stdout__)
    assert ok, line


def star3(q=3):
    return Multigraph(q, [[0, 1, 1], [1, 0, 0], [1, 0, 0]])


def rs_subgraph():
    rs = rs747_fixture().graph
    keep = [0, 1, 2, 3, 4]
    return Multigraph(7, rs.gamma[np.ix_(keep, keep)])


def random_secret(rng, q):
    s = rng.normal(size=q) + 1j * rng.normal(size=q)
    return s / np.linalg.norm(s)


def random_nonisolated_graph(n, q, rng):
    while True:
        g = random_graph(n, q, rng)
        if all(g.degree(v) > 0 for v in range(n)):
            return g


def test_criterion_01_rs747_threshold():
    started = time.monotonic()
    dg = rs747_fixture()
    g, d = dg.graph, dg.dealer
    players = [v for v in range(g.n) if v != d]
    quads_ok = all(
        quantum_derivative(g, d, b) == -1 for b in itertools.combinations(players, 4)
    )
    small_ok = all(
        quantum_derivative(g, d, b) >= 0
        for size in (1, 2, 3)
        for b in itertools.combinations(players, size)
    )
    k = scheme_k(dg).k
    elapsed = time.monotonic() - started
    ok = quads_ok and small_ok and k == 4 and elapsed < 1.0
    _check(
        1,
        ok,
        f"rs747: 35 quads accessible={quads_ok}, 63 small sets blocked={small_ok}, "
        f"k={k}, {elapsed:.3f}s",
    )


def test_criterion_02_witness_perfectness():
    started = time.monotonic()
    rng = np.random.default_rng(20250814)
    checked = 0
    for q in (2, 3, 5, 7):
        for _ in range(500):
            n = int(rng.integers(2, 9))
            g = random_graph(n, q, rng)
            d = int(rng.integers(0, n))
            players = [v for v in range(n) if v != d]
            size = int(rng.integers(0, len(players) + 1))
            b = tuple(sorted(rng.choice(players, size=size, replace=False).tolist()))
            pi = pi_classical(g, d, b)
            dms, cms = witness_D(g, d, b), witness_C(g, d, b)
            assert (dms is not None) == (pi == 1)
            assert (cms is not None) == (pi == 0)
            if dms is not None:
                assert set(np.flatnonzero(dms).tolist()) <= set(b)
                nb = (g.gamma @ dms) % q
                assert {v for v in range(n) if v not in b and nb[v]} == {d}
                assert nb[d] == 1
            else:
                assert set(np.flatnonzero(cms).tolist()) <= set(v for v in range(n) if v not in b)
                assert cms[d] == 1
                nb = (g.gamma @ cms) % q
                assert all(nb[v] == 0 for v in b)
            checked += 1
    elapsed = time.monotonic() - started
    ok = checked == 2000 and elapsed < 30.0
    _check(2, ok, f"{checked} witness instances verified exactly, {elapsed:.1f}s")


def test_criterion_03_graph_oracle_equivalence():
    # one oracle_reports sweep per (graph, dealer) over every player set, and
    # pi of every set from one batch_indicators call; the graphs and the
    # oracle's secrets and syndromes draw from separate generators, so the
    # graphs do not depend on how many draws a sweep makes
    started = time.monotonic()
    graph_rng = np.random.default_rng(314159)
    oracle_rng = np.random.default_rng(271828)
    shapes = [(2, 5, 100), (3, 5, 100), (5, 4, 30)]
    graphs = 0
    instances = 0
    for q, n_max, count in shapes:
        for _ in range(count):
            n = int(graph_rng.integers(2, n_max + 1))
            g = random_nonisolated_graph(n, q, graph_rng)
            graphs += 1
            for d in range(n):
                players = [v for v in range(n) if v != d]
                sets = [b for r in range(len(players) + 1) for b in itertools.combinations(players, r)]
                pis = batch_indicators(g.gamma[None], q, d, _index_array(sets))[0][0].tolist()
                for pi, row in zip(pis, oracle_reports(g, d, sets, oracle_rng), strict=True):
                    leak = row["max_trace_distance"]
                    assert (pi == 1) == (leak >= 1 - EXACT)
                    assert (pi == 0) == (leak <= EXACT)
                    assert (row["decode_fidelity"] >= 1 - EXACT) == (row["verdict_graph"] == "accessible")
                    assert row["verdict_oracle"] == row["verdict_graph"]
                    instances += 1
    elapsed = time.monotonic() - started
    ok = graphs >= 230 and elapsed < 600.0
    _check(
        3,
        ok,
        f"{graphs} graphs, {instances} (dealer, set) instances: rank verdicts "
        f"match simulator leak, decode fidelity at 1e-9 and oracle verdict, {elapsed:.1f}s",
    )


def test_criterion_04_stabilizer_fixpoint():
    rng = np.random.default_rng(271828)
    worst = 0.0
    for _ in range(100):
        q = int(rng.choice([2, 3, 5, 7]))
        n = int(rng.integers(2, 6 if q == 7 else 7))
        g = random_graph(n, q, rng)
        psi = graph_state(g)
        for u in range(n):
            out = apply_weyl(psi, stabilizer_generator(g, u))
            worst = max(worst, float(np.max(np.abs(out.amplitudes - psi.amplitudes))))
    _check(4, worst <= EXACT, f"100 graphs, max generator deviation {worst:.2e}")


def _mutual_information_bits(counts):
    total = counts.sum()
    joint = counts / total
    px = joint.sum(axis=1, keepdims=True)
    py = joint.sum(axis=0, keepdims=True)
    mask = joint > 0
    return float((joint[mask] * np.log2(joint[mask] / (px @ py)[mask])).sum())


def test_criterion_05_cq_round_contract():
    rounds_per_t = 100
    accessible = [
        (star3(3), (1, 2)),
        (star3(5), (1, 2)),
        (Multigraph(5, [[0, 1], [1, 0]]), (1,)),
    ]
    exact = 0
    for g, b in accessible:
        rng = np.random.default_rng(424242)
        for t in range(g.q):
            for _ in range(rounds_per_t):
                s, m = cq_round(g, 0, b, t, rng)
                assert m == s
                exact += 1

    path = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    mis = []
    for q in (3, 5):
        g = Multigraph(q, path)
        rng = np.random.default_rng(535353)
        counts = np.zeros((q, q))
        for _ in range(500):
            s, m = cq_round(g, 0, (2,), 0, rng, on_unauthorized="measure")
            counts[s, m] += 1
        mis.append(_mutual_information_bits(counts))
    ok = all(mi < 0.05 for mi in mis)
    _check(
        5,
        ok,
        f"{exact} authorized rounds decoded exactly; unauthorized MI "
        f"{', '.join(f'{mi:.4f}' for mi in mis)} bits over 500 rounds each",
    )


def test_criterion_06_cutrank_lc_invariance():
    rng = np.random.default_rng(606060)
    for _ in range(1000):
        q = int(rng.choice([2, 3, 5, 7]))
        n = int(rng.integers(2, 9))
        g = random_graph(n, q, rng)
        u = int(rng.integers(0, n))
        lam = int(rng.integers(1, q))
        bits = int(rng.integers(0, 2**n))
        b = [v for v in range(n) if bits >> v & 1]
        assert cutrank(g, b) == cutrank(local_complement(g, u, lam), b)
    _check(6, True, "1000 random local complementations left every cut rank unchanged")


def test_criterion_07_derivative_range_and_monotonicity():
    rng = np.random.default_rng(707070)
    for _ in range(1000):
        q = int(rng.choice([2, 3, 5, 7]))
        n = int(rng.integers(2, 9))
        g = random_graph(n, q, rng)
        d = int(rng.integers(0, n))
        players = [v for v in range(n) if v != d]
        inner_size = int(rng.integers(0, len(players) + 1))
        inner = rng.choice(players, size=inner_size, replace=False).tolist()
        extra = [v for v in players if v not in inner]
        outer_size = int(rng.integers(0, len(extra) + 1))
        outer = inner + rng.choice(extra, size=outer_size, replace=False).tolist()
        d_inner = quantum_derivative(g, d, inner)
        d_outer = quantum_derivative(g, d, outer)
        assert d_inner in (-1, 0, 1) and d_outer in (-1, 0, 1)
        assert d_inner >= d_outer
    _check(7, True, "derivative in {-1,0,1} and monotone on 1000 nested pairs")


@functools.cache
def _kernel_witness_sweep():
    # criterion 08 and its companion read the same seeded sweep; compute it once
    rng = np.random.default_rng(2718)
    instances = [(star3(3), 0, (1, 2))]
    while len(instances) < 400:
        q = int(rng.choice([2, 3, 5, 7]))
        n = int(rng.integers(3, 9))
        g = random_graph(n, q, rng)
        d = int(rng.integers(0, n))
        players = [v for v in range(n) if v != d]
        size = int(rng.integers(1, n))
        b = tuple(sorted(rng.choice(players, size=min(size, len(players)), replace=False).tolist()))
        if quantum_derivative(g, d, b) == -1:
            instances.append((g, d, b))

    member_fail = strict_viol = proof_viol = 0
    for g, d, b in instances:
        c = dealer_kernel_witness(g, d, b)
        cols = [d, *b]
        far = [v for v in range(g.n) if v not in set(cols)]
        cv = np.array([c[v] for v in cols], dtype=np.int64)
        in_slice = bool(cv.any())
        if far and ((g.gamma[np.ix_(far, cols)] @ cv) % g.q).any():
            in_slice = False
        if not in_slice:
            member_fail += 1
        sup = int(np.count_nonzero(cv))
        ck = cutrank(g, b)
        if not sup * (g.q + 1) < g.q * ck:
            strict_viol += 1
        if not sup * (g.q + 1) <= g.q * (ck + 1):
            proof_viol += 1
    return len(instances), member_fail, strict_viol, proof_viol


def test_criterion_08_kernel_witness_strict_bound():
    # The strict form fails whenever cutrk(B) = 1, since a witness has support
    # at least 1. Check the corrected bound on the sweep, and pin the star3
    # counterexample: both the returned witness and the kernel-wide minimum
    # violate the strict form there.
    total, member_fail, strict_viol, proof_viol = _kernel_witness_sweep()
    g, d, b = star3(3), 0, (1, 2)
    q, ck = g.q, cutrank(g, b)
    sup = int(np.count_nonzero(dealer_kernel_witness(g, d, b)))
    exact = min_support_kernel_element(g, d, b)
    refuted = sup * (q + 1) >= q * ck and exact * (q + 1) >= q * ck
    ok = member_fail == 0 and proof_viol == 0 and refuted
    _check(
        8,
        ok,
        f"{total} accessible instances: membership failures {member_fail}, "
        f"corrected bound |sup(C)|*(q+1) <= q*(cutrk(B)+1) violated {proof_viol} times; "
        f"strict bound |sup(C)|*(q+1) < q*cutrk(B) is false: star3(3), dealer {d}, B={b} "
        f"has witness support {sup}, kernel minimum {exact}, cutrk {ck} "
        f"({sup * (q + 1)} < {q * ck} fails; sweep violations {strict_viol}, not asserted)",
    )


def test_criterion_08_companion_proof_bound():
    # Checks the same corrected bound as criterion 08, apart from the
    # scorecard: |sup(C)|*(q+1) <= q*(cutrk(B)+1) on the seeded sweep.
    total, member_fail, _, proof_viol = _kernel_witness_sweep()
    line = (
        f"[criterion 08 companion] corrected bound holds on all {total} instances "
        f"(membership failures {member_fail}, violations {proof_viol})"
    )
    print(line)
    if sys.stdout is not sys.__stdout__ and sys.__stdout__ is not None:
        print(line, file=sys.__stdout__)
    assert member_fail == 0 and proof_viol == 0


def test_criterion_09_bound_values():
    a2 = asymptotic_lower_bound(2)
    in_window = 0.505 <= a2 <= 0.507
    primes = [2, 3, 5, 7, 11, 13]
    asym = [asymptotic_lower_bound(p) for p in primes]
    rand = [random_threshold_alpha(p) for p in primes]
    decreasing = all(x > y for x, y in zip(asym, asym[1:])) and all(
        x > y for x, y in zip(rand, rand[1:])
    )
    flb = finite_lower_bound(7, 7)
    admits_rs747 = flb < 4 and finite_inequality_holds(7, 7, 4)
    ok = in_window and decreasing and admits_rs747
    _check(
        9,
        ok,
        f"asymptotic alpha(2)={a2:.7f} in [0.505,0.507]={in_window}, curves strictly "
        f"decreasing={decreasing}, finite bound at (n=7,q=7) rules out k<={flb} so k=4 stands",
    )


def test_criterion_10_random_existence_trend():
    threshold = random_threshold_alpha(5)
    alpha = 0.75
    assert alpha > threshold
    successes = []
    for n in (9, 11, 13):
        summary = random_trials(n, 5, alpha, 200, seed=1)
        successes.append(summary.successes)
    assert successes == [187, 199, 199]
    band_ok = True
    for prev, nxt in zip(successes, successes[1:]):
        p = prev / 200
        sigma = (p * (1 - p) / 200) ** 0.5
        band_ok = band_ok and (nxt / 200 >= p - 2 * sigma)
    _check(
        10,
        band_ok,
        f"alpha=0.75 > threshold {threshold:.4f}; successes/200 at n=9,11,13: "
        f"{successes} non-decreasing within the 2-sigma binomial band",
    )


def test_criterion_11_nonexistence_evidence():
    res = exhaustive_search(4, 2, 2)
    exhausted = res.status == "exhausted" and res.checked == 64 and res.index is None

    rng = np.random.default_rng(1112)
    sets = [b for r in range(4) for b in itertools.combinations((1, 2, 3), r)]
    oracle_schemes = 0
    cross_checked = 0
    for idx in range(64):
        g = Multigraph(2, _gamma_from_index(idx, 4, 2))
        if g.degree(0) == 0:
            # no encoding exists; the rank side agrees nothing is accessible
            assert pi_classical(g, 0, (1, 2, 3)) == 0
            continue
        fid_ok = {}
        for b, row in zip(sets, oracle_reports(g, 0, sets, rng)):
            fid_ok[b] = row["decode_fidelity"] >= 1 - EXACT
            assert fid_ok[b] == (quantum_derivative(g, 0, b) == -1)
            cross_checked += 1
        is_scheme = all(fid_ok[b] for b in fid_ok if len(b) >= 2) and not any(
            fid_ok[b] for b in fid_ok if len(b) <= 1
        )
        oracle_schemes += int(is_scheme)

    scan = random_trials(8, 3, 0.5, 10**6, seed=99)
    part1 = exhausted and oracle_schemes == 0
    part2 = scan.successes == 0
    _check(
        11,
        part1 and part2,
        f"all 64 q=2 n=4 graphs exhausted, oracle re-confirms no ((2,3))_2 scheme on "
        f"{cross_checked} decodes; randomized q=3 n=8 alpha=0.5 scan: "
        f"{scan.successes}/{scan.trials} schemes found "
        "(sampling evidence against existence, not an impossibility proof)",
    )


def test_criterion_12_variant_equivalence():
    rng = np.random.default_rng(121212)
    worst = 1.0
    for g in (star3(3), rs_subgraph()):
        players = [v for v in range(g.n) if v != 0]
        for _ in range(20):
            sec = random_secret(rng, g.q)
            ref = qq_encode(g, 0, sec)
            states = [ref] + [
                encode_decode_variants(g, 0, mode, sec, rng=rng)
                for mode in ("E1", "E2", "E3")
            ]
            for a, b in itertools.combinations(states, 2):
                worst = min(worst, state_fidelity(a, b))

            joint = encode_decode_variants(g, 0, "D2", sec)
            dms = witness_D(g, 0, players)
            cms = witness_C(g, 0, [])
            from qss.oracle import code_unitaries

            _, v_op = code_unitaries(g, 0, players, dms, cms)
            undone = apply_controlled(joint, joint.n - 1, v_op)
            with_plus = StateVector(g.q, g.n, np.kron(ref.amplitudes, np.ones(g.q) / np.sqrt(g.q)))
            worst = min(worst, state_fidelity(undone, with_plus))

            recovered = encode_decode_variants(g, 0, "D3", sec)
            worst = min(worst, float(abs(np.vdot(sec, recovered)) ** 2))
    _check(
        12,
        worst >= 1 - EXACT,
        f"E1/E2/E3 pairwise, D2 wiring and D3 recovery on 20 secrets x 2 graphs: "
        f"minimum fidelity {worst:.12f}",
    )
