"""Dense simulator: Weyl algebra, graph states, protocol rounds, decoders.

These tests pin the simulator against hand-computable states and against the
rank-algebra layer, so the two sides stay independent checks of each other.
"""

import numpy as np
import pytest

from qss.access import cutrank, witness_C, witness_D
from qss.multigraph import Multigraph, random_graph, rs747_fixture
from qss.oracle import (
    BellDecodeResult,
    StateVector,
    WeylOperator,
    _stabilizer_product,
    apply_controlled,
    apply_weyl,
    bell_basis_vector,
    bell_measure,
    code_unitaries,
    cq_encode,
    cq_round,
    decode_params,
    density_fidelity,
    eigenvalue_label,
    encode_decode_variants,
    graph_hash,
    graph_state,
    info_leak,
    leak_profile,
    logical_x,
    logical_z,
    measure_site_basis,
    measure_weyl,
    mub_basis,
    mub_vector,
    omega_table,
    oracle_reports,
    qq_decode_bell,
    qq_encode,
    reduced_density,
    schmidt_rank,
    stabilizer_generator,
    state_fidelity,
    trace_distance,
)


def star3():
    return Multigraph(3, [[0, 1, 1], [1, 0, 0], [1, 0, 0]])


def edge2():
    return Multigraph(2, [[0, 1], [1, 0]])


def tri2():
    return Multigraph(2, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])


def path4():
    return Multigraph(3, [[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]])


def rs_subgraph():
    rs = rs747_fixture().graph
    keep = [0, 1, 2, 3, 4]
    return Multigraph(7, rs.gamma[np.ix_(keep, keep)])


def random_secret(rng, q):
    s = rng.normal(size=q) + 1j * rng.normal(size=q)
    return s / np.linalg.norm(s)


# ---------------------------------------------------------------- state vector


def test_computational_state_and_grid():
    s = StateVector.computational(3, 2, [2, 1])
    assert s.amplitudes[2 * 3 + 1] == 1.0
    assert s.grid()[2, 1] == 1.0
    assert s.norm() == pytest.approx(1.0)
    with pytest.raises(ValueError, match="digit"):
        StateVector.computational(3, 2, [1])


def test_state_budget_guard():
    with pytest.raises(ValueError, match="budget"):
        StateVector(5, 10, np.zeros(5**10))
    # an explicit budget admits the same register
    StateVector(5, 10, np.zeros(5**10), budget=10_000_000)


def test_tensor_budget_and_dimension_check():
    a = StateVector.computational(3, 1, [0])
    b = StateVector.computational(3, 1, [1])
    ab = a.tensor(b)
    assert ab.n == 2
    assert ab.grid()[0, 1] == 1.0
    with pytest.raises(ValueError, match="dimension"):
        a.tensor(StateVector.computational(5, 1, [0]))
    with pytest.raises(ValueError, match="budget"):
        a.tensor(b, budget=2)


def test_check_normalized_drift():
    s = StateVector(3, 1, [1.0, 1.0, 0.0])
    with pytest.raises(AssertionError, match="norm"):
        s.check_normalized()


# ----------------------------------------------------------------- weyl algebra


def test_xz_versus_zx_on_zero():
    q = 3
    zero = StateVector.computational(q, 1, [0])
    one = StateVector.computational(q, 1, [1])
    x = WeylOperator(q, (1,), (0,))
    z = WeylOperator(q, (0,), (1,))
    xz = apply_weyl(zero, x @ z)
    zx = apply_weyl(zero, z @ x)
    omega = omega_table(q)[1]
    assert np.allclose(xz.amplitudes, one.amplitudes)
    assert np.allclose(zx.amplitudes, omega * one.amplitudes)


def test_omega_table_is_built_once_per_q_and_read_only():
    table = omega_table(5)
    assert omega_table(5) is table
    assert np.array_equal(table, np.exp(2j * np.pi * np.arange(5) / 5))
    with pytest.raises(ValueError, match="read-only"):
        table[0] = 0


def commutation_exponent(a, b):
    """e with a @ b = omega^e (b @ a): the symplectic form z_a.x_b - z_b.x_a."""
    e = sum(z * x for z, x in zip(a.z_powers, b.x_powers)) - sum(z * x for z, x in zip(b.z_powers, a.x_powers))
    return e % a.q


def test_commutation_exponent():
    for q in (2, 3, 5):
        x = WeylOperator(q, (1,), (0,))
        z = WeylOperator(q, (0,), (1,))
        assert commutation_exponent(x, z) == q - 1
        assert commutation_exponent(z, x) == 1
        assert commutation_exponent(x, x) == 0
        xz, zx = x @ z, z @ x
        assert (xz.x_powers, xz.z_powers) == (zx.x_powers, zx.z_powers)
        assert (xz.phase - zx.phase) % q == commutation_exponent(x, z)


def test_weyl_inverse_and_power():
    rng = np.random.default_rng(71)
    for q in (2, 3, 5):
        for _ in range(20):
            w = WeylOperator(
                q,
                tuple(rng.integers(0, q, size=3)),
                tuple(rng.integers(0, q, size=3)),
                int(rng.integers(0, q)),
            )
            assert w @ w.inverse() == WeylOperator.identity(q, 3)
            assert w.inverse() @ w == WeylOperator.identity(q, 3)
            if q != 2:
                assert (w**q).x_powers == (0, 0, 0)
                assert (w**q).z_powers == (0, 0, 0)
                assert (w**q).phase == 0


def test_weyl_square_at_q2_odd_weight():
    # XZ on one site squares to -I: exponents vanish, phase flips
    w = WeylOperator(2, (1,), (1,), 0)
    sq = w**2
    assert sq.x_powers == (0,) and sq.z_powers == (0,)
    assert sq.phase == 1
    assert sq != WeylOperator.identity(2, 1)


def test_weyl_power_matches_repeated_product():
    rng = np.random.default_rng(72)
    for q in (3, 5):
        for _ in range(20):
            w = WeylOperator(
                q,
                tuple(rng.integers(0, q, size=2)),
                tuple(rng.integers(0, q, size=2)),
                int(rng.integers(0, q)),
            )
            acc = WeylOperator.identity(q, 2)
            for m in range(6):
                assert acc == w**m
                acc = acc @ w


def test_weyl_embed_and_factor():
    # exponents appended for new sites act as the tensor product with them
    rng = np.random.default_rng(79)
    w = WeylOperator(3, (1, 0), (2, 1), 1)
    psi = StateVector(3, 2, rng.normal(size=9) + 1j * rng.normal(size=9))
    psi = StateVector(3, 2, psi.amplitudes / psi.norm())
    anc = StateVector.computational(3, 1, [2])
    wide = WeylOperator(3, (*w.x_powers, 2), (*w.z_powers, 1), w.phase)
    expected = np.kron(apply_weyl(psi, w).amplitudes, apply_weyl(anc, WeylOperator(3, (2,), (1,), 0)).amplitudes)
    assert np.allclose(apply_weyl(psi.tensor(anc), wide).amplitudes, expected)

    big = WeylOperator(3, (0, 1, 0, 0), (0, 2, 0, 1), 1)
    rest = big.factor_site(3)
    assert rest.x_powers == (0, 1, 0)
    assert rest.z_powers == (0, 2, 0)
    assert rest.phase == 1
    with pytest.raises(ValueError, match="X component"):
        big.factor_site(1)


def test_weyl_validation():
    with pytest.raises(ValueError, match="length"):
        WeylOperator(3, (1,), (0, 0), 0)
    with pytest.raises(ValueError, match="shapes"):
        WeylOperator.identity(3, 2) @ WeylOperator.identity(3, 3)


def test_graph_stabilizers_commute():
    rng = np.random.default_rng(73)
    for _ in range(30):
        q = int(rng.choice([2, 3, 5]))
        g = random_graph(4, q, rng)
        ops = [stabilizer_generator(g, u) for u in range(4)]
        for a in ops:
            for b in ops:
                assert commutation_exponent(a, b) == 0


def folded_product(g, w, order):
    """prod_u K_u^{w_u} multiplied out one generator power at a time."""
    out = WeylOperator.identity(g.q, g.n)
    for u in order:
        k_u = stabilizer_generator(g, u)
        assert k_u == WeylOperator(g.q, np.arange(g.n) == u, g.gamma[u])  # X_u Z^{Gamma.u}
        out = out @ (k_u ** int(w[u]))
    return out


def test_stabilizer_product_matches_ordered_fold():
    rng = np.random.default_rng(80)
    for q in (2, 3, 5, 7):
        for _ in range(100):
            n = int(rng.integers(2, 8))
            g = random_graph(n, q, rng)
            w = rng.integers(-2 * q, 2 * q + 1, size=n)  # below 0 and at least q
            prod = _stabilizer_product(g, w)
            assert prod == folded_product(g, w, rng.permutation(n).tolist())
            # the round operator's shape K_C^t K_D^e has weight t*C + e*D
            c, t = rng.integers(-2 * q, 2 * q + 1, size=n), int(rng.integers(0, q))
            assert (folded_product(g, c, range(n)) ** t) @ prod == _stabilizer_product(g, t * c + w)
            if q**n <= 3**7:
                assert eigenvalue_label(graph_state(g), prod) == 0


# ------------------------------------------------------------------ mub bases


def test_mub_bases_orthonormal_and_unbiased():
    for q in (2, 3, 5, 7):
        bases = [mub_basis(q, t) for t in range(2 if q == 2 else q)]
        for m in bases:
            assert np.allclose(m.conj().T @ m, np.eye(q), atol=1e-12)
        target = 1 / np.sqrt(q)
        for i, a in enumerate(bases):
            for b in bases[i + 1 :]:
                overlaps = np.abs(a.conj().T @ b)
                assert np.allclose(overlaps, target, atol=1e-12)


def test_mub_t0_is_computational():
    for q in (2, 5):
        assert np.allclose(mub_basis(q, 0), np.eye(q))


def test_mub_eigenvector_relation():
    # |i(t)> has X^t Z eigenvalue omega^i (odd q); q=2 uses i * (-1)^i
    for q in (3, 5):
        for t in range(1, q):
            w = WeylOperator(q, (t,), (1,), 0)
            for i in range(q):
                vec = StateVector(q, 1, mub_vector(q, t, i))
                assert eigenvalue_label(vec, w) == i
    xz = np.array([[0, -1], [1, 0]], dtype=complex)
    for i in range(2):
        v = mub_vector(2, 1, i)
        assert np.allclose(xz @ v, (1j if i == 0 else -1j) * v)


# ---------------------------------------------------------------- graph states


def test_edge_graph_state_amplitudes():
    amps = graph_state(edge2()).amplitudes
    assert np.allclose(amps, [0.5, 0.5, 0.5, -0.5])


def test_graph_state_budget():
    with pytest.raises(ValueError, match="budget"):
        graph_state(rs747_fixture().graph, budget=1000)


def test_stabilizers_fix_graph_state():
    rng = np.random.default_rng(74)
    for _ in range(30):
        q = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(2, 6))
        g = random_graph(n, q, rng)
        psi = graph_state(g)
        for u in range(n):
            assert eigenvalue_label(psi, stabilizer_generator(g, u)) == 0


# --------------------------------------------------------------- measurements


def test_measure_computational_deterministic():
    rng = np.random.default_rng(75)
    s = StateVector.computational(3, 2, [2, 0])
    out, post = measure_site_basis(s, 0, np.eye(3, dtype=complex), rng)
    assert out == 2
    assert state_fidelity(post, s) == pytest.approx(1.0)


def test_measure_plus_state_statistics():
    q = 3
    rng = np.random.default_rng(76)
    plus = StateVector(q, 1, np.ones(q) / np.sqrt(q))
    counts = np.zeros(q)
    draws = 1200
    for _ in range(draws):
        out, _ = measure_site_basis(plus, 0, np.eye(q, dtype=complex), rng)
        counts[out] += 1
    sigma = (draws * (1 / q) * (1 - 1 / q)) ** 0.5
    assert (np.abs(counts - draws / q) <= 4 * sigma).all()


def test_measure_weyl_stabilizer_label_zero():
    rng = np.random.default_rng(77)
    for g in (star3(), tri2()):
        psi = graph_state(g)
        for u in range(g.n):
            m, post = measure_weyl(psi, stabilizer_generator(g, u), rng)
            assert m == 0
            assert state_fidelity(post, psi) == pytest.approx(1.0)


def test_measure_weyl_q2_odd_weight_convention():
    # (1, i)/sqrt(2) is the -i eigenvector of XZ; label 1 via i*(-1)^m
    rng = np.random.default_rng(78)
    state = StateVector(2, 1, np.array([1.0, 1.0j]) / np.sqrt(2))
    w = WeylOperator(2, (1,), (1,), 0)
    m, _ = measure_weyl(state, w, rng)
    assert m == 1
    other = StateVector(2, 1, np.array([1.0, -1.0j]) / np.sqrt(2))
    m2, _ = measure_weyl(other, w, rng)
    assert m2 == 0


def test_eigenvalue_label_rejects_non_eigenvector():
    with pytest.raises(AssertionError, match="eigenvector"):
        eigenvalue_label(
            StateVector.computational(3, 1, [0]), WeylOperator(3, (1,), (0,))
        )


# ------------------------------------------------------------------- encodings


def test_cq_encode_edge_codewords():
    g = edge2()
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    assert np.allclose(cq_encode(g, 0, 0).amplitudes, plus)
    assert np.allclose(cq_encode(g, 0, 1).amplitudes, minus)


def test_cq_encode_isolated_dealer():
    g = Multigraph(3, [[0, 0, 0], [0, 0, 1], [0, 1, 0]])
    with pytest.raises(ValueError, match="isolated"):
        cq_encode(g, 0, 0)


def test_codewords_orthonormal():
    for g in (star3(), tri2(), rs_subgraph()):
        words = [cq_encode(g, 0, s) for s in range(g.q)]
        gram = np.array([[a.inner(b) for b in words] for a in words])
        assert np.allclose(gram, np.eye(g.q), atol=1e-12)


def test_qq_encode_linearity_and_isometry():
    g = star3()
    rng = np.random.default_rng(79)
    sec = random_secret(rng, 3)
    enc = qq_encode(g, 0, sec)
    manual = sum(sec[j] * cq_encode(g, 0, j).amplitudes for j in range(3))
    assert np.allclose(enc.amplitudes, manual)
    assert enc.norm() == pytest.approx(1.0)
    with pytest.raises(ValueError, match="normalized"):
        qq_encode(g, 0, [1.0, 1.0, 0.0])


def test_logical_operators_act_on_codewords():
    for g in (star3(), edge2(), rs_subgraph()):
        xbar, zbar = logical_x(g, 0), logical_z(g, 0)
        words = [cq_encode(g, 0, s) for s in range(g.q)]
        for s in range(g.q):
            shifted = apply_weyl(words[s], xbar)
            assert state_fidelity(shifted, words[(s + 1) % g.q]) == pytest.approx(1.0)
            assert eigenvalue_label(words[s], zbar) == s


def test_logical_z_needs_a_dealer_neighbor():
    g = Multigraph(3, [[0, 0, 0], [0, 0, 1], [0, 1, 0]])
    with pytest.raises(ValueError, match="adjacent"):
        logical_z(g, 0)


@pytest.mark.parametrize("logical", [logical_x, logical_z], ids=lambda f: f.__name__)
@pytest.mark.parametrize("dealer", [-1, -3, 3])
def test_logical_operators_reject_out_of_range_dealer(logical, dealer):
    # on the 3-vertex star, index -1 would wrap to vertex 2 and -3 to vertex 0
    with pytest.raises(ValueError, match=f"dealer {dealer} out of range for order 3"):
        logical(star3(), dealer)


# ------------------------------------------------------------ reduced densities


def test_reduced_density_edge_is_maximally_mixed():
    rho = reduced_density(graph_state(edge2()), [0])
    assert np.allclose(rho, np.eye(2) / 2)


def test_reduced_density_empty_and_errors():
    psi = graph_state(star3())
    scalar = reduced_density(psi, [])
    assert scalar.shape == (1, 1)
    assert scalar[0, 0] == pytest.approx(1.0)
    with pytest.raises(ValueError, match="register"):
        reduced_density(psi, [5])
    with pytest.raises(ValueError, match="budget"):
        reduced_density(psi, [0, 1], budget=8)


def test_distance_and_fidelity_extremes():
    a = np.array([[1, 0], [0, 0]], dtype=complex)
    b = np.array([[0, 0], [0, 1]], dtype=complex)
    assert trace_distance(a, b) == pytest.approx(1.0)
    assert density_fidelity(a, b) == pytest.approx(0.0, abs=1e-12)
    assert trace_distance(a, a) == pytest.approx(0.0)
    assert density_fidelity(a, a) == pytest.approx(1.0)


def test_info_leak_extremes():
    assert info_leak(star3(), 0, [1]) == pytest.approx(1.0, abs=1e-9)
    rs = rs747_fixture().graph
    assert info_leak(rs, 0, [1, 2, 3]) == pytest.approx(0.0, abs=1e-9)
    rhos = leak_profile(rs, 0, [1, 2, 3])
    assert len(rhos) == 7
    for rho in rhos[1:]:
        assert trace_distance(rhos[0], rho) == pytest.approx(0.0, abs=1e-9)
        assert density_fidelity(rhos[0], rho) == pytest.approx(1.0, abs=1e-9)


def test_info_leak_rejects_dealer_and_outside_vertices():
    g = star3()
    for fn in (info_leak, leak_profile):
        with pytest.raises(ValueError, match="dealer 0 must not belong"):
            fn(g, 0, [0, 1])
        with pytest.raises(ValueError, match="outside vertex range"):
            fn(g, 0, [1, 7])


def test_schmidt_rank_equals_q_power_cutrank():
    cases = [(star3(), [1]), (tri2(), [0, 1]), (rs_subgraph(), [1, 2])]
    rng = np.random.default_rng(80)
    for _ in range(40):
        q = int(rng.choice([2, 3]))
        n = int(rng.integers(2, 6))
        g = random_graph(n, q, rng)
        bits = int(rng.integers(1, 2**n - 1))
        cases.append((g, [v for v in range(n) if bits >> v & 1]))
    for g, sites in cases:
        psi = graph_state(g)
        assert schmidt_rank(psi, sites) == g.q ** cutrank(g, sites)


@pytest.mark.parametrize("sites", [[-1], [0, -3], [3], [1, 7]])
def test_site_positions_outside_the_register_raise(sites):
    psi = graph_state(star3())
    with pytest.raises(ValueError, match="outside the register"):
        schmidt_rank(psi, sites)
    with pytest.raises(ValueError, match="outside the register"):
        reduced_density(psi, sites)


# ------------------------------------------------------------ classical rounds


def test_decode_params_t0_reduction():
    g = star3()
    p = decode_params(g, 0, [1, 2], {1: 1}, None, 0)
    assert p.t == 0
    assert p.beta == 0
    assert p.x == {1: 1, 2: 0}  # X exponents mirror the accessing multiset
    assert p.c == 0


def test_decode_params_needs_c_for_nonzero_t():
    with pytest.raises(ValueError, match="hiding witness"):
        decode_params(star3(), 0, [1, 2], {1: 1}, None, 1)


def test_decode_params_rejects_bad_pair():
    with pytest.raises(ValueError, match="access conditions"):
        decode_params(star3(), 0, [1, 2], {2: 2, 1: 1}, None, 0)


def test_decode_params_constructive_phase_overrides_printed():
    # the closed-form phase printed for this case is 0; the constructive
    # phase that makes the stabilizer product fix |G> is 1
    g = star3()
    dms = witness_D(g, 0, [1, 2])
    cms = witness_C(g, 0, [])  # hiding witness over B + {d}, here just {d}
    p = decode_params(g, 0, [1, 2], dms, cms, 1)
    assert p.c == 1


def test_decode_params_q2_half_correction_integral():
    g = tri2()
    dms = witness_D(g, 0, [1, 2])
    cms = witness_C(g, 0, [])
    for t in (0, 1):
        p = decode_params(g, 0, [1, 2], dms, cms if t else None, t)
        assert p.half_correction in (0, 1)
        assert p.decode(0) in (0, 1)


def test_cq_round_contract_all_bases():
    for g in (star3(), tri2()):
        rng = np.random.default_rng(81)
        ts = (0, 1) if g.q == 2 else range(g.q)
        for t in ts:
            for _ in range(10):
                s, m = cq_round(g, 0, [1, 2], t, rng)
                assert m == s


def test_protocol_rounds_on_sets_that_leave_a_player_out():
    # on the path 0-1-2-3 the sets (1, 2) and (1, 3) each leave one player
    # outside, where decode_params checks the stabilizer product for a leak;
    # a doubled D is rescaled to dealer multiplicity 1 before decoding
    g = path4()
    rng = np.random.default_rng(88)
    for b in ((1, 2), (1, 3)):
        for t in range(3):
            for _ in range(5):
                s, m = cq_round(g, 0, b, t, rng)
                assert m == s
        dms = witness_D(g, 0, b)
        doubled = {v: 2 * w for v, w in dms.items()}
        assert decode_params(g, 0, b, doubled, None, 0) == decode_params(g, 0, b, dms, None, 0)


def test_cq_round_unauthorized_paths():
    sub = rs_subgraph()
    rng = np.random.default_rng(82)
    with pytest.raises(ValueError, match="contract"):
        cq_round(sub, 0, [1], 0, rng)
    s, m = cq_round(sub, 0, [1], 0, rng, on_unauthorized="measure")
    assert 0 <= s < 7 and 0 <= m < 7
    with pytest.raises(ValueError, match="on_unauthorized"):
        cq_round(sub, 0, [1], 0, rng, on_unauthorized="shrug")
    # the value is checked before the set is, so an authorized set rejects it too
    with pytest.raises(ValueError, match="on_unauthorized"):
        cq_round(star3(), 0, [1, 2], 0, rng, on_unauthorized="shrug")


def test_cq_round_budget_threading():
    rng = np.random.default_rng(83)
    with pytest.raises(ValueError, match="budget"):
        cq_round(star3(), 0, [1, 2], 0, rng, budget=8)


# ------------------------------------------------------------- quantum decode


def test_code_unitaries_phase_and_shift():
    for g in (star3(), rs_subgraph()):
        players = [v for v in range(g.n) if v != 0]
        b = players  # full set is always authorized
        dms = witness_D(g, 0, b)
        cms = witness_C(g, 0, [])
        u_op, v_op = code_unitaries(g, 0, b, dms, cms)
        words = [cq_encode(g, 0, s) for s in range(g.q)]
        for s in range(g.q):
            assert eigenvalue_label(words[s], u_op) == s
            shifted = apply_weyl(words[s], v_op)
            assert state_fidelity(shifted, words[(s + 1) % g.q]) == pytest.approx(1.0)


def test_code_unitaries_need_both_witnesses():
    with pytest.raises(ValueError, match="both"):
        code_unitaries(star3(), 0, [1, 2], {1: 1}, None)


def test_qq_decode_bell_authorized():
    g = star3()
    rng = np.random.default_rng(84)
    for _ in range(5):
        sec = random_secret(rng, 3)
        enc = qq_encode(g, 0, sec)
        res = qq_decode_bell(g, 0, [1, 2], enc, rng, expected=sec)
        assert isinstance(res, BellDecodeResult)
        assert not res.used_fallback
        assert res.fidelity >= 1 - 1e-9
        k, l = res.syndrome
        assert 0 <= k < 3 and 0 <= l < 3
        assert np.allclose(np.abs(np.vdot(res.amplitudes, sec)), 1.0, atol=1e-7)


def test_qq_decode_bell_partial_set_falls_back():
    g = star3()
    rng = np.random.default_rng(85)
    for _ in range(20):
        sec = random_secret(rng, 3)
        enc = qq_encode(g, 0, sec)
        res = qq_decode_bell(g, 0, [1], enc, rng, expected=sec)
        assert res.used_fallback
        assert res.fidelity < 1 - 1e-9


def test_qq_decode_bell_empty_set():
    g = star3()
    rng = np.random.default_rng(86)
    sec = random_secret(rng, 3)
    enc = qq_encode(g, 0, sec)
    res = qq_decode_bell(g, 0, [], enc, rng, expected=sec)
    assert res.used_fallback
    assert res.fidelity < 1 - 1e-9


def test_qq_decode_bell_rejects_dealer_and_outside_vertices():
    g = star3()
    rng = np.random.default_rng(87)
    sec = random_secret(rng, 3)
    enc = qq_encode(g, 0, sec)
    with pytest.raises(ValueError, match="must not belong"):
        qq_decode_bell(g, 0, [0, 1, 2], enc, rng, expected=sec)
    with pytest.raises(ValueError, match="outside vertex range"):
        qq_decode_bell(g, 0, [1, 2, 7], enc, rng, expected=sec)


# ----------------------------------------------------------- bell primitives


def test_bell_basis_orthonormal():
    q = 3
    vecs = [bell_basis_vector(q, k, l) for k in range(q) for l in range(q)]
    gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
    assert np.allclose(gram, np.eye(q * q), atol=1e-12)


def test_bell_measure_recovers_prepared_label():
    q = 3
    rng = np.random.default_rng(87)
    for k in range(q):
        for l in range(q):
            state = StateVector(q, 2, bell_basis_vector(q, k, l))
            got_k, got_l, rest = bell_measure(state, 0, 1, rng)
            assert (got_k, got_l) == (k, l)
            assert rest.n == 0


def test_apply_controlled_entangles():
    q = 3
    plus = StateVector(q, 1, np.ones(q) / np.sqrt(q))
    zero = StateVector.computational(q, 1, [0])
    both = plus.tensor(zero)
    out = apply_controlled(both, 0, WeylOperator(q, (1,), (0,)))
    grid = out.grid()
    for j in range(q):
        assert grid[j, j] == pytest.approx(1 / np.sqrt(q))
    assert schmidt_rank(out, [0]) == q


# --------------------------------------------------------- encode/decode variants


@pytest.mark.parametrize("mode", ["E1", "E2", "E3"])
def test_encoding_variants_match_direct_encoding(mode):
    rng = np.random.default_rng(88)
    for g in (star3(), tri2(), rs_subgraph()):
        for _ in range(4):
            sec = random_secret(rng, g.q)
            ref = qq_encode(g, 0, sec)
            out = encode_decode_variants(g, 0, mode, sec, rng=rng)
            assert state_fidelity(ref, out) >= 1 - 1e-9


def test_e3_on_basis_secret():
    # the dealer wire must end exactly in |+>; projection inside E3 verifies
    g = star3()
    sec = np.array([0.0, 1.0, 0.0])
    out = encode_decode_variants(g, 0, "E3", sec)
    assert state_fidelity(out, cq_encode(g, 0, 1)) == pytest.approx(1.0)


def test_measurement_variants_need_rng():
    with pytest.raises(ValueError, match="rng"):
        encode_decode_variants(star3(), 0, "E1", [1, 0, 0])


def test_unknown_variant_mode():
    with pytest.raises(ValueError, match="unknown mode"):
        encode_decode_variants(star3(), 0, "E9", [1, 0, 0])


def test_d2_returns_joint_state():
    g = star3()
    rng = np.random.default_rng(89)
    sec = random_secret(rng, 3)
    joint = encode_decode_variants(g, 0, "D2", sec)
    assert joint.n == 3  # two players + ancilla
    assert joint.norm() == pytest.approx(1.0)


def test_d3_recovers_secret():
    rng = np.random.default_rng(90)
    for g in (star3(), tri2(), rs_subgraph()):
        for _ in range(3):
            sec = random_secret(rng, g.q)
            out = encode_decode_variants(g, 0, "D3", sec)
            assert abs(np.vdot(sec, out)) ** 2 >= 1 - 1e-9


def test_d3_on_proper_authorized_subset():
    g = star3()
    rng = np.random.default_rng(91)
    sec = random_secret(rng, 3)
    out = encode_decode_variants(g, 0, "D3", sec, b_set=[1, 2])
    assert abs(np.vdot(sec, out)) ** 2 >= 1 - 1e-9


def test_decode_variants_reject_unauthorized_set():
    g = star3()
    with pytest.raises(ValueError, match="authorized"):
        encode_decode_variants(g, 0, "D3", [1.0, 0.0, 0.0], b_set=[1])


# ---------------------------------------------------------------------- report


def test_graph_hash_stable_and_distinct():
    h1 = graph_hash(star3())
    assert h1 == graph_hash(star3())
    assert len(h1) == 16
    assert h1 != graph_hash(tri2())


def test_oracle_report_verdicts_agree():
    g = star3()
    for b, verdict in (([1, 2], "accessible"), ([1], "partial"), ([], "no_info")):
        [rep] = oracle_reports(g, 0, [b], np.random.default_rng(5))
        assert rep["verdict_graph"] == verdict
        assert rep["verdict_oracle"] == verdict
        assert set(rep) == {
            "graph_hash",
            "B",
            "verdict_graph",
            "verdict_oracle",
            "max_trace_distance",
            "decode_fidelity",
        }


def test_oracle_reports_equal_one_set_loop():
    # one seed drives both sides: the sweep over all sets of a dealer draws
    # the same numbers, in the same order, as one one-set call per set
    rng = np.random.default_rng(17)
    for q, n in ((2, 5), (3, 4), (5, 4), (7, 3)):
        g = random_graph(n, q, rng)
        for d in range(n):
            if g.degree(d) == 0:
                continue
            players = [v for v in range(n) if v != d]
            # bitmask order interleaves the set sizes that the sweep ranks apart
            sets = [[players[j] for j in range(n - 1) if bits >> j & 1] for bits in range(2 ** (n - 1))]
            loop_rng = np.random.default_rng(5)
            assert oracle_reports(g, d, sets, np.random.default_rng(5)) == [
                oracle_reports(g, d, [b], loop_rng)[0] for b in sets
            ]


def test_oracle_reports_reject_bad_inputs():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="must not belong"):
        oracle_reports(star3(), 0, [(1,), (0, 1)], rng)
    with pytest.raises(ValueError, match="isolated dealer"):
        oracle_reports(Multigraph(3, [[0, 0, 0], [0, 0, 1], [0, 1, 0]]), 0, [(1,)], rng)
