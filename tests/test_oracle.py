"""Dense simulator: Weyl algebra, graph states, protocol rounds, decoders.

These tests pin the simulator against hand-computable states and against the
rank-algebra layer, so the two sides stay independent checks of each other.
"""

import tracemalloc
from dataclasses import FrozenInstanceError
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qss.access import QUANTUM_VERDICT, cutrank, quantum_derivative, witness_C, witness_D, witness_rows
from qss.multigraph import Multigraph, parse_graph, random_graph, rs747_fixture
from qss.search import _gamma_from_index
import qss.oracle
from qss.oracle import (
    AMPLITUDE_BUDGET,
    STACK_CAP,
    BellDecodeResult,
    BudgetExceeded,
    StateVector,
    _bell_decode,
    _check_norms,
    _codewords,
    _draw_rows,
    _fidelity,
    _fourier_matrix,
    _join,
    _keep_sites,
    _measure_rows,
    _measure_site,
    _on_site,
    _set_trace_distances,
    _site_density,
    _site_powers,
    _split,
    _stabilizer_rows,
    _steering,
    _steering_rows,
    _superpose,
    _weyl_power,
    _weyl_powers,
    _weyl_product,
    apply_controlled,
    apply_weyl,
    code_unitaries,
    cq_encode,
    cq_round,
    decode_params,
    density_fidelity,
    encode_decode_variants,
    graph_hash,
    graph_state,
    leak_profile,
    logical_x,
    logical_z,
    measure_weyl,
    omega_table,
    oracle_reports,
    qq_decode_bell,
    qq_encode,
    reduced_density,
    stabilizer_generator,
    state_fidelity,
    trace_distance,
)

from helpers import vector


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


def weyl(x, z, phase=0):
    """The [x | z | phase] row of omega^phase X^x Z^z."""
    return np.r_[x, z, phase].astype(np.int64)


def identity(n):
    return np.zeros(2 * n + 1, dtype=np.int64)


def random_secret(rng, q):
    s = rng.normal(size=q) + 1j * rng.normal(size=q)
    return s / np.linalg.norm(s)


# ---------------------------------------------------------------- state vector


def basis(q, *digits):
    """The flat row of the basis state |digits>, site 0 most significant."""
    row = np.zeros(q ** len(digits), dtype=np.complex128)
    row[np.ravel_multi_index(digits, [q] * len(digits))] = 1.0
    return row


def test_site_j_is_the_jth_digit_most_significant_first():
    # |2, 1> on two qutrits sits at flat index 2 * 3 + 1; the per-site
    # helpers read site 0 as the leading digit
    rows = basis(3, 2, 1)[None]
    assert rows[0, 7] == 1.0 and rows.reshape(3, 3)[2, 1] == 1.0
    assert np.array_equal(_site_density(3, rows, 0)[0], np.diag([0, 0, 1]))
    assert np.array_equal(_site_density(3, rows, 1)[0], np.diag([0, 1, 0]))
    assert np.array_equal(_on_site(3, rows, 0, np.eye(3)[[2]]), basis(3, 1)[None])
    assert np.array_equal(_on_site(3, rows, 1, np.roll(np.eye(3), 1, axis=0)), basis(3, 2, 2)[None])


def test_state_budget_guard():
    with pytest.raises(ValueError, match="budget"):
        StateVector(5, 10, np.zeros(5**10))
    # an explicit budget admits the same register
    StateVector(5, 10, np.zeros(5**10), budget=10_000_000)


def test_state_record_checks_its_register():
    with pytest.raises(ValueError, match="prime"):
        StateVector(4, 1, np.ones(4) / 2)
    with pytest.raises(ValueError, match="reshape"):
        StateVector(3, 2, np.ones(8))
    with pytest.raises(FrozenInstanceError):
        StateVector(3, 1, basis(3, 0)).n = 2


@pytest.mark.parametrize("mode, grown", [("E1", 3**4), ("E2", 3**3), ("E3", 3**3), ("D2", 3**3), ("D3", 3**3)])
def test_variants_check_the_budget_where_the_register_grows(mode, grown):
    # the star's graph state (27 amplitudes) and codewords (9) fit a budget
    # that the register grown by the secret or ancilla site exceeds
    rng = np.random.default_rng(1)
    with pytest.raises(BudgetExceeded, match=f"^{grown} amplitudes exceed the budget"):
        encode_decode_variants(star3(), 0, mode, [1.0, 0.0, 0.0], rng=rng, budget=grown - 1)
    # the secret site must match the qudit dimension of the graph
    with pytest.raises(ValueError, match="reshape"):
        encode_decode_variants(star3(), 0, mode, [1.0, 0.0], rng=rng)


@pytest.mark.parametrize("mode, grown", [("E1", 3**4), ("E2", 3**3), ("E3", 3**3), ("D2", 3**3), ("D3", 3**3)])
def test_variants_refuse_the_grown_register_before_building_it(monkeypatch, mode, grown):
    # the budget check comes before np.kron allocates the larger register
    monkeypatch.setattr(np, "kron", lambda *args: pytest.fail("np.kron ran before the budget check"))
    with pytest.raises(BudgetExceeded, match=f"^{grown} amplitudes exceed the budget"):
        encode_decode_variants(star3(), 0, mode, [1.0, 0.0, 0.0], rng=np.random.default_rng(1), budget=grown - 1)


def test_norm_drift_raises():
    with pytest.raises(AssertionError, match="norm"):
        _check_norms(np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]))
    with pytest.raises(AssertionError, match="norm"):
        apply_weyl(StateVector(3, 1, [1.0, 1.0, 0.0]), weyl([1], [0]))


# ----------------------------------------------------------------- weyl algebra


def test_xz_versus_zx_on_zero():
    q = 3
    zero = StateVector(q, 1, basis(q, 0))
    one = StateVector(q, 1, basis(q, 1))
    x, z = weyl([1], [0]), weyl([0], [1])
    xz = apply_weyl(zero, _weyl_product(q, x, z))
    zx = apply_weyl(zero, _weyl_product(q, z, x))
    omega = omega_table(q)[1]
    assert np.allclose(xz.amplitudes, one.amplitudes)
    assert np.allclose(zx.amplitudes, omega * one.amplitudes)


def test_omega_table_is_built_once_per_q_and_read_only():
    table = omega_table(5)
    assert omega_table(5) is table
    assert np.array_equal(table, np.exp(2j * np.pi * np.arange(5) / 5))
    with pytest.raises(ValueError, match="read-only"):
        table[0] = 0


def commutation_exponent(q, a, b):
    """e with W_a W_b = omega^e W_b W_a: the symplectic form z_a.x_b - z_b.x_a."""
    (xa, za, _), (xb, zb, _) = _split(a), _split(b)
    return int(za @ xb - zb @ xa) % q


def test_commutation_exponent():
    for q in (2, 3, 5):
        x, z = weyl([1], [0]), weyl([0], [1])
        assert commutation_exponent(q, x, z) == q - 1
        assert commutation_exponent(q, z, x) == 1
        assert commutation_exponent(q, x, x) == 0
        xz, zx = _weyl_product(q, x, z), _weyl_product(q, z, x)
        assert xz[:-1].tolist() == zx[:-1].tolist()
        assert (xz[-1] - zx[-1]) % q == commutation_exponent(q, x, z)


def test_weyl_inverse_and_power():
    rng = np.random.default_rng(71)
    for q in (2, 3, 5):
        for _ in range(20):
            w = weyl(rng.integers(0, q, size=3), rng.integers(0, q, size=3), int(rng.integers(0, q)))
            inverse = _weyl_power(q, w, -1)
            assert _weyl_product(q, w, inverse).tolist() == identity(3).tolist()
            assert _weyl_product(q, inverse, w).tolist() == identity(3).tolist()
            if q != 2:
                assert _weyl_power(q, w, q).tolist() == identity(3).tolist()


def test_weyl_square_at_q2_odd_weight():
    # XZ on one site squares to -I: exponents vanish, phase flips
    sq = _weyl_power(2, weyl([1], [1]), 2)
    assert sq[:-1].tolist() == [0, 0]
    assert sq[-1] == 1
    assert sq.tolist() != identity(1).tolist()


def weyl_by_rolls(q, grid, w):
    """The per-axis reference for W|x> = omega^{phase + b.x} |x + a>: the
    phase grid built by one broadcast add per Z power, then one np.roll
    per X power."""
    n, (x, z, phase) = grid.ndim, _split(w)
    exp = np.zeros([q] * n, dtype=np.int64)
    for v, b in enumerate(z):
        exp = exp + b * np.arange(q).reshape([q if j == v else 1 for j in range(n)])
    out = grid * omega_table(q)[(exp + phase) % q]
    for v, a in enumerate(x):
        out = np.roll(out, a, axis=v)
    return out.reshape(-1)


def test_weyl_map_is_the_per_axis_reference_bit_for_bit():
    # apply_weyl, measure_weyl, apply_controlled and the Bell decode map a
    # stack of rows, each by its own operator, through one phase multiply
    # and one gather; each amplitude of each row must be the float the
    # per-axis reference computes, for identity, Z-only, X-only and general
    # operators alike, in a mixed stack and in a stack of one
    rng = np.random.default_rng(92)
    for q, n in ((2, 1), (2, 7), (3, 4), (5, 3), (7, 2)):
        ops, rows = [], []
        for kind in ("identity", "z", "x", "xz") * 2:
            x = rng.integers(0, q, n) * (kind in ("x", "xz"))
            z = rng.integers(0, q, n) * (kind in ("z", "xz"))
            ops.append(weyl(x, z, int(rng.integers(0, q))))
            psi = rng.normal(size=q**n) + 1j * rng.normal(size=q**n)
            rows.append(psi / np.linalg.norm(psi))
        stacked = _weyl_powers(q, np.array(rows), np.array(ops), 1)[1]
        for w, psi, got in zip(ops, rows, stacked):
            want = weyl_by_rolls(q, psi.reshape([q] * n), w).tobytes()
            assert got.tobytes() == want
            assert apply_weyl(StateVector(q, n, psi), w).amplitudes.tobytes() == want


def test_weyl_power_matches_repeated_product():
    rng = np.random.default_rng(72)
    for q in (3, 5):
        for _ in range(20):
            w = weyl(rng.integers(0, q, size=2), rng.integers(0, q, size=2), int(rng.integers(0, q)))
            acc = identity(2)
            for m in range(6):
                assert acc.tolist() == _weyl_power(q, w, m).tolist()
                acc = _weyl_product(q, acc, w)


def test_weyl_embed_and_factor():
    # exponents appended for new sites act as the tensor product with them
    rng = np.random.default_rng(79)
    w = weyl((1, 0), (2, 1), 1)
    psi = rng.normal(size=9) + 1j * rng.normal(size=9)
    psi = StateVector(3, 2, psi / np.linalg.norm(psi))
    anc = StateVector(3, 1, basis(3, 2))
    x, z, phase = _split(w)
    wide = weyl((*x, 2), (*z, 1), phase)
    expected = np.kron(apply_weyl(psi, w).amplitudes, apply_weyl(anc, weyl((2,), (1,))).amplitudes)
    joint = StateVector(3, 3, np.kron(psi.amplitudes, anc.amplitudes))
    assert np.allclose(apply_weyl(joint, wide).amplitudes, expected)

    big = weyl((0, 1, 0, 0), (0, 2, 0, 1), 1)
    rest = _keep_sites(big, [0, 1, 2])
    assert _split(rest)[0].tolist() == [0, 1, 0]
    assert _split(rest)[1].tolist() == [0, 2, 0]
    assert rest[-1] == 1


def test_weyl_validation():
    with pytest.raises(ValueError, match="shapes"):
        _weyl_product(3, identity(2), identity(3))


# each public entry on a one-site register (apply_controlled: one control
# site and one target), and rows that must not pass as that site's operator
ROW_ENTRIES = {
    "apply_weyl": lambda row: apply_weyl(StateVector(3, 1, basis(3, 0)), row),
    "measure_weyl": lambda row: measure_weyl(StateVector(3, 1, basis(3, 0)), row, np.random.default_rng(1)),
    "apply_controlled": lambda row: apply_controlled(StateVector(3, 2, basis(3, 1, 0)), 0, row),
}


@pytest.mark.parametrize("entry", sorted(ROW_ENTRIES))
@pytest.mark.parametrize("row, error", [
    ([1.5, 0, 0], "operator exponents must be integers"),
    (["1", "0", "0"], "operator exponents must be integers"),
    ("100", "operator exponents must be integers"),
    ([1, 0, 0, 0, 0], "does not match the state register"),
    ([1, 0], "does not match the state register"),
])
def test_public_entries_take_integer_rows_of_their_register(entry, row, error):
    with pytest.raises(ValueError, match=error):
        ROW_ENTRIES[entry](row)
    # an integral float row passes as the integers it holds
    assert ROW_ENTRIES[entry]([1.0, 0.0, 0.0]) is not None


def dense(q, row):
    """omega^p X^x Z^z as a q^m x q^m matrix, site 0 the most significant:
    X^a Z^b on one site maps |c> to omega^{bc} |c + a>."""
    x, z, phase = _split(np.asarray(row))
    c = np.arange(q)
    out = np.ones((1, 1))
    for a, b in zip(x.tolist(), z.tolist()):
        out = np.kron(out, (c[:, None] == (c + a) % q) * omega_table(q)[b * c % q])
    return omega_table(q)[phase % q] * out


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3, 5]).flatmap(lambda q: st.integers(1, 3).flatmap(lambda m: st.tuples(
    st.just(q),
    *[st.lists(st.integers(-3 * q, 3 * q), min_size=2 * m + 1, max_size=2 * m + 1) for _ in range(2)],
    st.integers(-2 * q, 2 * q)))))
def test_row_algebra_is_the_dense_matrix_algebra(case):
    # rows of any integers, reduced or not: composition, inverse and every
    # power from -2q to 2q act as the products of their dense matrices
    q, a, b, k = case
    a, b = np.array(a), np.array(b)
    eye = np.eye(q ** (len(a) // 2))
    assert np.allclose(dense(q, _weyl_product(q, a, b)), dense(q, a) @ dense(q, b), atol=1e-9)
    assert np.allclose(dense(q, _weyl_power(q, a, -1)) @ dense(q, a), eye, atol=1e-9)
    assert np.allclose(dense(q, _weyl_power(q, a, k)), np.linalg.matrix_power(dense(q, a), k), atol=1e-9)
    # every result is reduced: exponents and phase lie in 0..q-1
    assert 0 <= _weyl_product(q, a, b).min() and _weyl_power(q, a, k).max() < q


def test_xz_squares_to_minus_identity_at_q2():
    # (XZ)^2 = -I: a row of q = 2 has order 4, so powers reduce mod 2q
    xz = weyl([1], [1])
    assert np.allclose(dense(2, _weyl_power(2, xz, 2)), -np.eye(2))
    assert _weyl_power(2, xz, 2).tolist() == [0, 0, 1]
    assert _weyl_power(2, xz, 4).tolist() == identity(1).tolist()
    assert _weyl_power(2, xz, -1).tolist() == _weyl_power(2, xz, 3).tolist() == [1, 1, 1]
    # stacked: the powers 0..3 of XZ on two sites in one call
    assert _weyl_power(2, weyl([1, 1], [1, 0]), np.arange(4)).tolist() == [
        [0, 0, 0, 0, 0], [1, 1, 1, 0, 0], [0, 0, 0, 0, 1], [1, 1, 1, 0, 1]]


def test_graph_stabilizers_commute():
    rng = np.random.default_rng(73)
    for _ in range(30):
        q = int(rng.choice([2, 3, 5]))
        g = random_graph(4, q, rng)
        ops = [stabilizer_generator(g, u) for u in range(4)]
        for a in ops:
            for b in ops:
                assert commutation_exponent(q, a, b) == 0


def folded_product(g, w, order):
    """prod_u K_u^{w_u} multiplied out one generator power at a time."""
    out = identity(g.n)
    for u in order:
        k_u = stabilizer_generator(g, u)
        assert k_u.tolist() == weyl(np.arange(g.n) == u, g.gamma[u]).tolist()  # X_u Z^{Gamma.u}
        out = _weyl_product(g.q, out, _weyl_power(g.q, k_u, int(w[u])))
    return out


def test_stabilizer_product_matches_ordered_fold():
    # 1048573, the largest prime the package accepts, with up to 12
    # vertices: w.Gamma.w reaches 2^64, past int64, before it is reduced
    rng = np.random.default_rng(80)
    for q in (2, 3, 5, 7, 1048573):
        for _ in range(100):
            n = int(rng.integers(2, 8 if q < 11 else 13))
            g = random_graph(n, q, rng)
            w = rng.integers(-2 * q, 2 * q + 1, size=n)  # below 0 and at least q
            prod = _stabilizer_rows(g, w)
            assert prod.tolist() == folded_product(g, w, rng.permutation(n).tolist()).tolist()
            # the round operator's shape K_C^t K_D^e has weight t*C + e*D
            c, t = rng.integers(-2 * q, 2 * q + 1, size=n), int(rng.integers(0, q))
            folded = _weyl_product(q, _weyl_power(q, folded_product(g, c, range(n)), t), prod)
            assert folded.tolist() == _stabilizer_rows(g, t * c + w).tolist()
            if q**n <= 3**7:
                psi = graph_state(g)
                assert np.allclose(apply_weyl(psi, prod).amplitudes, psi.amplitudes, rtol=0, atol=1e-9)


# -------------------------------------------------------- Weyl measurement labels


def test_weyl_measurement_labels_its_eigenvector():
    # measuring X^t Z on one site of a random two-site state leaves an
    # eigenvector of eigenvalue omega^label, for every basis t
    rng = np.random.default_rng(79)
    for q in (3, 5, 7):
        for t in range(q):
            w = weyl((t, 0), (1, 0))
            for _ in range(3):
                amps = rng.normal(size=q * q) + 1j * rng.normal(size=q * q)
                label, post = measure_weyl(StateVector(q, 2, amps / np.linalg.norm(amps)), w, rng)
                out = apply_weyl(post, w).amplitudes
                assert np.allclose(out, omega_table(q)[label] * post.amplitudes, rtol=0, atol=1e-9)


# ---------------------------------------------------------------- graph states


def test_edge_graph_state_amplitudes():
    amps = graph_state(edge2()).amplitudes
    assert np.allclose(amps, [0.5, 0.5, 0.5, -0.5])


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_graph_state_edge_sum_is_the_per_edge_reference_bit_for_bit(q):
    # the edges added into the exponents in groups by their lower vertex give
    # the amplitudes of one full-register sum per edge, bit for bit
    rng = np.random.default_rng(60 + q)
    weights = set()
    for n in range(2, 7 if q < 5 else 5):
        for _ in range(3):
            gamma = np.triu(rng.integers(0, q, size=(n, n)), 1)
            g = Multigraph(q, gamma + gamma.T)
            digit = [np.arange(q).reshape([q if j == v else 1 for j in range(n)]) for v in range(n)]
            exp = np.zeros([q] * n, dtype=np.int64)
            for u, v, w in g.edges():
                exp = exp + w * digit[u] * digit[v]
                weights.add(w)
            reference = (omega_table(q)[exp % q] * q ** (-n / 2)).reshape(-1)
            assert graph_state(g).amplitudes.tobytes() == reference.tobytes()
    assert max(weights) == q - 1


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
            out = apply_weyl(psi, stabilizer_generator(g, u)).amplitudes
            assert np.allclose(out, psi.amplitudes, rtol=0, atol=1e-9)


# --------------------------------------------------------------- measurements


def test_measure_computational_deterministic():
    rng = np.random.default_rng(75)
    s = StateVector(3, 2, basis(3, 2, 0))
    out, post = measure_weyl(s, weyl((0, 0), (1, 0)), rng)
    assert out == 2
    assert state_fidelity(post, s) == pytest.approx(1.0)


def test_measure_plus_state_statistics():
    q = 3
    rng = np.random.default_rng(76)
    plus = StateVector(q, 1, np.ones(q) / np.sqrt(q))
    counts = np.zeros(q)
    draws = 1200
    for _ in range(draws):
        out, _ = measure_weyl(plus, weyl((0,), (1,)), rng)
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
    w = weyl((1,), (1,))
    m, _ = measure_weyl(state, w, rng)
    assert m == 1
    other = StateVector(2, 1, np.array([1.0, -1.0j]) / np.sqrt(2))
    m2, _ = measure_weyl(other, w, rng)
    assert m2 == 0


def test_draw_is_generator_choice_on_one_uniform():
    # every measurement samples through _draw_rows; on one row it must pick
    # the outcome Generator.choice(p=...) picks and leave both streams
    # aligned, also for zero weights and tiny negative ones that are clipped away
    weights_rng = np.random.default_rng(2024)
    for seed in range(200):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(50):
            size = int(weights_rng.integers(1, 9))
            weights = weights_rng.random(size) * (weights_rng.random(size) < 0.7)
            weights[weights_rng.random(size) < 0.2] = -1e-17
            if weights.max() <= 0:
                weights[int(weights_rng.integers(size))] = 0.5
            (outcome,), (probs,) = _draw_rows(weights[None], ours.random)
            assert outcome == theirs.choice(size, p=probs)
            assert probs[outcome] > 0
        assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("weights", [[0.0, 0.0], [-1e-17, 0.0], [np.nan, 1.0], [np.inf, 1.0], [1e308, 1e308]])
def test_draw_rejects_weights_without_a_finite_positive_total(weights):
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="weights sum to"):
        _draw_rows(np.array(weights)[None], rng.random)
    assert rng.bit_generator.state == state


def test_row_wise_draw_picks_the_outcome_of_draw_on_each_row():
    # a stack of weight rows, zeros and tiny negatives included, draws on each
    # row what a stack of that row alone draws from the same uniform
    weights_rng = np.random.default_rng(2025)
    for size in range(1, 9):
        weights = weights_rng.random((40, size)) * (weights_rng.random((40, size)) < 0.7)
        weights[weights_rng.random((40, size)) < 0.2] = -1e-17
        weights[weights.max(axis=1) <= 0, 0] = 0.5
        uniforms = np.random.default_rng(size).random(40)
        one_by_one = np.random.default_rng(size)
        outcomes, probs = _draw_rows(weights, uniforms)
        for row, outcome, row_probs in zip(weights, outcomes, probs):
            (alone,), (alone_probs,) = _draw_rows(row[None], one_by_one.random)
            assert outcome == alone and row_probs.tobytes() == alone_probs.tobytes()


def test_row_whose_weights_clip_to_zero_raises_before_any_draw():
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    weights = np.array([[0.2, 0.8], [-1e-17, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="weights sum to 0.0"):
        _draw_rows(weights, rng.random)
    assert rng.bit_generator.state == state
    # a zero row among states measured as one stack
    psi = np.zeros((3, 9), dtype=np.complex128)
    psi[0, 0] = psi[2, 4] = 1.0
    with pytest.raises(ValueError, match="weights sum to"):
        _measure_rows(3, psi, np.array([weyl((0, 0), (1, 0))] * 3), np.full(3, 0.5))


@pytest.mark.parametrize("q, m", [(2, 3), (3, 3), (5, 3), (7, 2)])
def test_one_site_measurement_is_the_full_register_rule(q, m):
    # random states, every site and every (x, z) != (0, 0), odd x.z at q = 2
    # included: on the same uniform, the one-site route draws the label of
    # _measure_rows, the full-register reference, and leaves the same state;
    # a row's label and floats do not depend on the stack it sits in
    rng = np.random.default_rng(500 + q)
    for v in range(m):
        ops = [(a, b) for a in range(q) for b in range(q) if a or b]
        x, z = np.zeros((len(ops), m), dtype=np.int64), np.zeros((len(ops), m), dtype=np.int64)
        x[:, v], z[:, v] = np.array(ops).T
        rows = _join(x, z, rng.integers(0, q, len(ops)))
        psi = rng.normal(size=(len(ops), q**m)) + 1j * rng.normal(size=(len(ops), q**m))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        uniforms = rng.random(len(ops))
        labels, post = _measure_site(q, psi, rows, uniforms, v)
        want_labels, want = _measure_rows(q, psi, rows, uniforms)
        assert labels.tolist() == want_labels.tolist()
        assert np.abs(post - want).max() <= 1e-12
        for i in range(len(ops)):
            alone = _measure_site(q, psi[i:i + 1], rows[i:i + 1], uniforms[i:i + 1], v)
            assert alone[0][0] == labels[i] and alone[1][0].tobytes() == post[i].tobytes()


def test_measure_weyl_routes_by_the_operators_support(monkeypatch):
    # an operator on one site takes no _weyl_powers call; one on two sites,
    # or on none, takes one
    calls, powers = [], qss.oracle._weyl_powers
    monkeypatch.setattr(qss.oracle, "_weyl_powers", lambda *args: calls.append(1) or powers(*args))
    rng = np.random.default_rng(501)
    psi = graph_state(path4())
    for w, taken in ((weyl((0, 2, 0, 0), (0, 1, 0, 0)), 0), (weyl((0, 0, 0, 0), (0, 0, 0, 2)), 0),
                     (stabilizer_generator(path4(), 1), 1), (identity(4), 1)):
        calls.clear()
        measure_weyl(psi, w, rng)
        assert len(calls) == taken


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_one_site_weyl_map_is_the_full_register_gather(q):
    # the Bell decode's correction Z^k X^{-l} = omega^{-kl} X^{-l} Z^k as a
    # q x q map on one site, against _weyl_powers, for every (k, l) and site
    rng = np.random.default_rng(600 + q)
    m, count = 3, 4
    rows = rng.normal(size=(count, q**m)) + 1j * rng.normal(size=(count, q**m))
    for v in range(m):
        for k in range(q):
            for l in range(q):
                x, z = np.zeros((count, m), dtype=np.int64), np.zeros((count, m), dtype=np.int64)
                x[:, v], z[:, v] = -l, k
                phase = np.full(count, -k * l)
                got = _on_site(q, rows, v, _site_powers(q, np.stack([x[:, v], z[:, v], phase], axis=1))[:, 1])
                assert np.abs(got - _weyl_powers(q, rows, _join(x, z, phase), 1)[1]).max() <= 1e-15


def test_projecting_a_site_out_checks_its_state():
    rows = np.array([basis(3, 1, 0), basis(3, 0, 0)])
    assert np.array_equal(_on_site(3, rows[:1], 0, np.eye(3)[[1]]), basis(3, 0)[None])
    with pytest.raises(AssertionError, match="site 0 is not in the expected product state"):
        _on_site(3, rows, 0, np.eye(3)[[1]])


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
        gram = np.array([[np.vdot(a.amplitudes, b.amplitudes) for b in words] for a in words])
        assert np.allclose(gram, np.eye(g.q), atol=1e-12)


def test_qq_encode_linearity_and_isometry():
    g = star3()
    rng = np.random.default_rng(79)
    sec = random_secret(rng, 3)
    enc = qq_encode(g, 0, sec)
    manual = sum(sec[j] * cq_encode(g, 0, j).amplitudes for j in range(3))
    assert np.allclose(enc.amplitudes, manual)
    assert np.linalg.norm(enc.amplitudes) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="normalized"):
        qq_encode(g, 0, [1.0, 1.0, 0.0])


def test_logical_operators_act_on_codewords():
    for g in (star3(), edge2(), rs_subgraph()):
        xbar, zbar = logical_x(g, 0), logical_z(g, 0)
        words = [cq_encode(g, 0, s) for s in range(g.q)]
        for s in range(g.q):
            shifted = apply_weyl(words[s], xbar)
            assert state_fidelity(shifted, words[(s + 1) % g.q]) == pytest.approx(1.0)
            out = apply_weyl(words[s], zbar).amplitudes
            assert np.allclose(out, omega_table(g.q)[s] * words[s].amplitudes, rtol=0, atol=1e-9)


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


def test_stacked_trace_distances_are_the_pairwise_ones_bit_for_bit():
    # the oracle stacks the codeword pairs of its sets' reduced states up
    # to q^|B| = 2r, past 27 x 27 from q = 2 and n = 10; every distance
    # must be the float of the one-pair call
    rng = np.random.default_rng(93)
    for dim in (1, 3, 9, 25, 27, 32, 49, 81, 128, 256):
        mats = rng.normal(size=(5, 2, dim, dim)) + 1j * rng.normal(size=(5, 2, dim, dim))
        mats = mats + mats.conj().swapaxes(-1, -2)
        stacked = trace_distance(mats[:, 0], mats[:, 1])
        assert stacked.tolist() == [trace_distance(a, b) for a, b in mats]


def test_info_leak_extremes():
    # player positions are vertices less one: the dealer is vertex 0
    words = _codewords(star3(), 0, range(3), AMPLITUDE_BUDGET)
    assert _set_trace_distances(words, [[0]], AMPLITUDE_BUDGET)[0] == pytest.approx(1.0, abs=1e-9)
    rs, budget = rs747_fixture().graph, 7**8  # the seven codewords of 7^7 amplitudes
    leak = _set_trace_distances(_codewords(rs, 0, range(7), budget), [[0, 1, 2]], budget)[0]
    assert leak == pytest.approx(0.0, abs=1e-9)
    rhos = leak_profile(rs, 0, [1, 2, 3], budget=budget)
    assert len(rhos) == 7
    for rho in rhos[1:]:
        assert trace_distance(rhos[0], rho) == pytest.approx(0.0, abs=1e-9)
        assert density_fidelity(rhos[0], rho) == pytest.approx(1.0, abs=1e-9)


def dealer_graph(n, q, rng):
    """A random graph on n vertices whose dealer 0 is not isolated."""
    while True:
        g = random_graph(n, q, rng)
        if g.degree(0) > 0:
            return g


def dense_max_trace_distance(g, b):
    return max(trace_distance(x, y) for x, y in combinations(leak_profile(g, 0, b), 2))


@pytest.mark.parametrize("q, n, size", [
    (2, 7, 6), (3, 5, 4), (5, 4, 3), (7, 4, 3), (3, 4, 3),  # the full set: r = 1
    (2, 8, 5), (3, 6, 4), (5, 5, 3), (7, 4, 2),  # 2r < q^|B|, above 27 x 27
    (5, 4, 2), (3, 5, 3), (2, 7, 4),  # 2r < q^|B| <= 27
    (2, 12, 5),  # 2r >= q^|B| > 27: the stacked reduced states, as at 27 and below
])
def test_set_trace_distance_above_27_matches_the_dense_reference(q, n, size):
    # every set past 27 x 27: the thin QR of each codeword pair, or up to
    # q^|B| = 2r the stacked reduced states
    rng = np.random.default_rng(94 + q * n + size)
    assert q**size > min(27, 2 * q ** (n - 1 - size))
    for _ in range(3):
        g = dealer_graph(n, q, rng)
        b = sorted(rng.choice(np.arange(1, n), size=size, replace=False).tolist())
        words = _codewords(g, 0, range(q), AMPLITUDE_BUDGET)
        got = _set_trace_distances(words, [[v - 1 for v in b]], AMPLITUDE_BUDGET)[0]
        assert abs(got - dense_max_trace_distance(g, b)) <= 1e-12


@pytest.mark.parametrize("q, n, size", [
    (2, 6, 3), (2, 7, 3), (3, 5, 2), (5, 4, 1), (7, 4, 1),
    (2, 12, 5), (3, 9, 4), (7, 5, 2),  # q^|B| > 27: 32, 81 and 49
])
def test_set_trace_distance_up_to_27_is_the_dense_route_bit_for_bit(q, n, size):
    # q^|B| <= 2r, r = q^(players - |B|), up to the q = 2 boundary q^|B| = 2r
    # of (2, 6, 3): the sets' stacked reduced states, bit for bit one set's
    rng = np.random.default_rng(95 + q * n + size)
    assert q**size <= 2 * q ** (n - 1 - size)
    g = dealer_graph(n, q, rng)
    words = _codewords(g, 0, range(q), AMPLITUDE_BUDGET)
    sets = list(combinations(range(1, n), size))
    stacked = _set_trace_distances(words, [[v - 1 for v in b] for b in sets], AMPLITUDE_BUDGET)
    for b, got in zip(sets, stacked):
        assert got == dense_max_trace_distance(g, b)
        assert got == _set_trace_distances(words, [[v - 1 for v in b]], AMPLITUDE_BUDGET)[0]


@pytest.mark.parametrize("text", [
    "q 3\nn 5\ne 0 3 2\ne 0 4 1\ne 1 2 1\ne 2 3 1\ne 2 4 1\ne 3 4 1\n",
    "q 5\nn 4\ne 0 1 3\ne 0 2 1\ne 0 3 1\ne 1 2 2\ne 1 3 3\ne 2 3 1\n",
    "q 2\nn 7\ne 0 1 1\ne 1 2 1\ne 2 3 1\ne 3 4 1\ne 4 5 1\ne 5 6 1\ne 0 6 1\n",
])
def test_info_leak_is_the_oracle_reports_distance_bit_for_bit(text):
    # one route computes a set's maximum trace distance, with no fork
    g = parse_graph(text)
    sets = [b for size in range(g.n) for b in combinations(range(1, g.n), size)]
    words = _codewords(g, 0, range(g.q), AMPLITUDE_BUDGET)
    for row in oracle_reports(g, 0, sets, np.random.default_rng(96)):
        positions = [v - 1 for v in row["B"]]
        assert _set_trace_distances(words, [positions], AMPLITUDE_BUDGET)[0] == row["max_trace_distance"]


def test_set_trace_distance_budget_bounds_the_gram_matrices():
    # q = 5, full set of 3 players: 125 x 125 states, r = 1, and 2 x 2
    # matrices R J R^dagger of each codeword pair
    g = parse_graph("q 5\nn 4\ne 0 1 2\ne 0 2 3\ne 1 2 4\ne 2 3 1\n")
    words = _codewords(g, 0, range(5), AMPLITUDE_BUDGET)
    with pytest.raises(BudgetExceeded, match="Gram"):
        _set_trace_distances(words, [[0, 1, 2]], 3)
    assert _set_trace_distances(words, [[0, 1, 2]], 4)[0] == pytest.approx(1.0, abs=1e-12)


def trace_distance_peak(size):
    """The peak bytes traced while _set_trace_distances takes the 12-player
    sets of one size of a q = 2 graph, and the codewords' bytes."""
    g = dealer_graph(13, 2, np.random.default_rng(100))
    words = _codewords(g, 0, range(2), AMPLITUDE_BUDGET)
    sets = [list(b) for b in combinations(range(12), size)]
    tracemalloc.start()
    try:
        _set_trace_distances(words, sets, AMPLITUDE_BUDGET)
        return tracemalloc.get_traced_memory()[1], words.nbytes
    finally:
        tracemalloc.stop()


def test_dense_trace_distances_hold_one_set_of_factors_at_a_time():
    # q = 2, 12 players, the 220 sets of size 3 in one chunk: each set's
    # (q, 8, 512) factors are the codewords themselves, so a copy per set
    # would hold 220 copies; one set's factors and their copies plus the
    # chunk's reduced states (at most STACK_CAP amplitudes) bound the peak
    peak, words = trace_distance_peak(3)
    assert peak <= 8 * words + 16 * STACK_CAP


def test_thin_trace_distances_hold_one_chunk_of_pairs_at_a_time():
    # q = 2, 12 players, the 220 sets of size 9: q^|B| = 512 > 2r = 16, so
    # each set's one codeword pair [A_0 A_1] is 512 x 16, and all 220 would
    # hold 28.8 MB; a chunk of at most STACK_CAP amplitudes (4 sets), the
    # QR's copy of it and one set's factors bound the peak
    peak, words = trace_distance_peak(9)
    assert peak <= 8 * words + 16 * STACK_CAP


def test_oracle_reports_check_the_decode_budget_before_any_trace_distance(monkeypatch):
    # q = 2, n = 6: the codewords fit 2^5 amplitudes, a decode needs 2^7, and
    # the sweep raises for the decode before it takes a trace distance
    g = parse_graph("q 2\nn 6\ne 0 1 1\ne 0 2 1\ne 1 3 1\ne 2 4 1\ne 3 5 1\ne 4 5 1\ne 1 4 1\ne 2 5 1\n")
    monkeypatch.setattr(qss.oracle, "_set_trace_distances", lambda *args: pytest.fail("trace distance taken"))
    with pytest.raises(BudgetExceeded, match="^128 amplitudes exceed the budget"):
        oracle_reports(g, 0, [(1,), (2, 3)], np.random.default_rng(17), budget=64)


def test_oracle_reports_check_the_decode_budget_before_any_codeword(monkeypatch):
    # the same graph: its 2^5-amplitude codewords fit the budget of 64, so
    # only the decode's check can refuse the sweep before they are built
    g = parse_graph("q 2\nn 6\ne 0 1 1\ne 0 2 1\ne 1 3 1\ne 2 4 1\ne 3 5 1\ne 4 5 1\ne 1 4 1\ne 2 5 1\n")
    monkeypatch.setattr(qss.oracle, "_codewords", lambda *args: pytest.fail("codewords built"))
    with pytest.raises(BudgetExceeded, match="^128 amplitudes exceed the budget"):
        oracle_reports(g, 0, [(1,), (2, 3)], np.random.default_rng(17), budget=64)


def test_info_leak_past_the_dense_budget_when_the_factor_fits():
    # all 11 players of a q = 2 graph: the 2,048 x 2,048 reduced state
    # exceeds the budget, its 2 x 2 Gram matrices do not
    g = dealer_graph(12, 2, np.random.default_rng(98))
    players = list(range(1, 12))
    with pytest.raises(BudgetExceeded):
        leak_profile(g, 0, players)
    words = _codewords(g, 0, range(2), AMPLITUDE_BUDGET)
    assert _set_trace_distances(words, [list(range(11))], AMPLITUDE_BUDGET)[0] == pytest.approx(1.0, abs=1e-12)


def test_info_leak_rejects_dealer_and_outside_vertices():
    g = star3()
    with pytest.raises(ValueError, match="dealer 0 must not belong"):
        leak_profile(g, 0, [0, 1])
    with pytest.raises(ValueError, match="outside vertex range"):
        leak_profile(g, 0, [1, 7])


def test_leak_profile_admits_the_codeword_stack_before_building_it(monkeypatch):
    # rs747 at a budget of 10^6: one codeword of 7^7 amplitudes fits it, the
    # stack of all seven does not, and the refusal comes before either is built
    monkeypatch.setattr(qss.oracle, "graph_state", lambda *args, **kwargs: pytest.fail("graph state built"))
    monkeypatch.setattr(qss.oracle, "_weyl_powers", lambda *args: pytest.fail("codewords built"))
    with pytest.raises(BudgetExceeded):
        leak_profile(rs747_fixture().graph, 0, [1, 2, 3, 4, 5], budget=10**6)


def schmidt_rank(state, sites):
    """The rank of the amplitudes as a (sites, rest) matrix, sites ascending:
    the Schmidt rank of that bipartition."""
    grid = np.moveaxis(state.amplitudes.reshape([state.q] * state.n), sites, range(len(sites)))
    return np.linalg.matrix_rank(grid.reshape(state.q ** len(sites), -1), tol=1e-7)


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
        reduced_density(psi, sites)


# ------------------------------------------------------------ classical rounds


def test_decode_params_t0_reduction():
    g = star3()
    row, offset = decode_params(g, 0, [1, 2], vector(3, {1: 1}), None, 0)
    x, z, phase = _split(row)
    assert x.tolist() == [0, 1, 0]  # X exponents mirror the accessing multiset, X^0 at the dealer
    assert z.tolist() == [1, 0, 0]  # the dealer's Z; K_1 = X_1 Z_0 puts no Z on the players
    assert phase == 0
    assert offset == 0


def test_decode_params_needs_c_for_nonzero_t():
    with pytest.raises(ValueError, match="hiding witness"):
        decode_params(star3(), 0, [1, 2], vector(3, {1: 1}), None, 1)


def test_decode_params_rejects_bad_pair():
    with pytest.raises(ValueError, match="access conditions"):
        decode_params(star3(), 0, [1, 2], vector(3, {2: 2, 1: 1}), None, 0)


def test_decode_params_constructive_phase_overrides_printed():
    # the closed-form phase printed for this case is 0; the constructive
    # phase that makes the stabilizer product fix |G> is 1
    g = star3()
    dms = witness_D(g, 0, [1, 2])
    cms = witness_C(g, 0, [])  # hiding witness over B + {d}, here just {d}
    x, z, phase = _split(decode_params(g, 0, [1, 2], dms, cms, 1)[0])
    assert phase == 1
    assert (x[0], z[0]) == (1, 1)  # the dealer's X^t Z at t = 1


def test_decode_params_q2_half_correction_integral():
    g = tri2()
    dms = witness_D(g, 0, [1, 2])
    cms = witness_C(g, 0, [])
    for t in (0, 1):
        assert decode_params(g, 0, [1, 2], dms, cms if t else None, t)[1] in (0, 1)


def test_round_operators_fix_the_graph_state():
    # every set and basis t with a round-t decoder, on every dealer-0 graph
    # with up to 4 vertices at q = 2, 3 and on random graphs at q = 5, 7:
    # K_C^t K_D^{1 - t*beta} fixes |G> and puts X^t Z on the dealer
    rng = np.random.default_rng(90)
    graphs = [Multigraph(q, gamma) for q in (2, 3) for n in range(2, 5)
              for gamma in _gamma_from_index(np.arange(q ** (n * (n - 1) // 2)), n, q)]
    graphs += [random_graph(int(rng.integers(2, 6)), q, rng) for q in (5, 7) for _ in range(15)]
    rounds = 0
    for g in graphs:
        psi, players = graph_state(g), range(1, g.n)
        sets = [b for k in range(g.n) for b in combinations(players, k)]
        d_rows, d_found, c_rows, c_found = witness_rows(g, 0, sets, [[v for v in players if v not in b] for b in sets])
        for i, b in enumerate(sets):
            for t in range(g.q if c_found[i] else 1) if d_found[i] else ():
                row = decode_params(g, 0, b, d_rows[i], c_rows[i] if t else None, t)[0]
                x, z, _ = _split(row)
                assert (x[0], z[0]) == (t, 1)
                assert np.abs(apply_weyl(psi, row).amplitudes - psi.amplitudes).max() <= 1e-12
                rounds += 1
    assert rounds > 5000


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
        doubled = 2 * dms
        (row, offset), (want, want_offset) = (decode_params(g, 0, b, w, None, 0) for w in (doubled, dms))
        assert np.array_equal(row, want)
        assert offset == want_offset


def test_cq_round_solves_its_witnesses_in_one_call(monkeypatch):
    # D alone at t = 0; D and C over B + {d} together at t != 0
    calls, solve = [], qss.oracle.witness_rows
    monkeypatch.setattr(qss.oracle, "witness_rows", lambda *args: calls.append(args[2:]) or solve(*args))
    rng = np.random.default_rng(86)
    for t in range(3):
        s, m = cq_round(path4(), 0, (1, 3), t, rng)
        assert m == s
    assert calls == [([(1, 3)], []), ([(1, 3)], [[2]]), ([(1, 3)], [[2]])]


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


def test_cq_round_set_that_reads_only_the_basis_0_secret():
    # on the star, player 1 alone reads the basis-0 secret (a witness D) but
    # player 2 reads it too, so no hiding witness C exists: the set has a
    # round-0 decoder and none for t != 0
    g = star3()
    rng = np.random.default_rng(84)
    for mode in ("raise", "measure"):
        s, m = cq_round(g, 0, [1], 0, rng, on_unauthorized=mode)
        assert m == s
    for t in (1, 2):
        with pytest.raises(ValueError, match="hiding witness"):
            cq_round(g, 0, [1], t, rng)
        s, m = cq_round(g, 0, [1], t, rng, on_unauthorized="measure")
        assert 0 <= s < 3 and 0 <= m < 3


def test_cq_round_budget_threading():
    rng = np.random.default_rng(83)
    with pytest.raises(ValueError, match="budget"):
        cq_round(star3(), 0, [1, 2], 0, rng, budget=8)


@pytest.mark.parametrize("g, b, ts, mode", [
    (star3(), (1, 2), (0, 1, 2), "raise"),
    (tri2(), (1, 2), (0, 1), "raise"),
    (path4(), (1, 3), (0, 1, 2), "raise"),
    (star3(), (), (0, 1), "measure"),
    (star3(), (1,), (1, 2), "measure"),
    (path4(), (2, 3), (0, 2), "measure"),
    (rs_subgraph(), (1,), (0, 3), "measure"),
])
def test_cq_round_draws_one_uniform_per_measurement(g, b, ts, mode):
    # the dealer's measurement and one per player, whatever the outcomes:
    # this keeps the rounds of a cq-round report on fixed draws
    for t in ts:
        rng, twin = np.random.default_rng(85), np.random.default_rng(85)
        for _ in range(4):
            cq_round(g, 0, b, t, rng, on_unauthorized=mode)
            twin.random(1 + len(b))
        assert rng.bit_generator.state == twin.bit_generator.state


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
            out = apply_weyl(words[s], u_op).amplitudes
            assert np.allclose(out, omega_table(g.q)[s] * words[s].amplitudes, rtol=0, atol=1e-9)
            shifted = apply_weyl(words[s], v_op)
            assert state_fidelity(shifted, words[(s + 1) % g.q]) == pytest.approx(1.0)


def test_code_unitaries_need_both_witnesses():
    with pytest.raises(ValueError, match="both"):
        code_unitaries(star3(), 0, [1, 2], vector(3, {1: 1}), None)


def folded_unitaries(g, d, b, dms, cms):
    """(U_B, V_B) multiplied out one generator power at a time: U_B =
    K_D^{-1} and V_B = Xbar K_C' K_D^{-beta}, D scaled to alpha = 1 and C'
    being C without its dealer weight, on the player register."""
    q, dvec, cvec = g.q, dms.copy(), cms.copy()
    dvec = dvec * pow(int(g.gamma[d] @ dvec % q), -1, q) % q
    beta, cvec[d] = int(g.gamma[d] @ cvec % q), 0
    players = [v for v in range(g.n) if v != d]
    u_op, v_rest = folded_product(g, -dvec % q, range(g.n)), folded_product(g, (cvec - beta * dvec) % q, range(g.n))
    # the dealer's site splits off exactly: neither carries an X power there
    assert u_op[d] == v_rest[d] == 0
    return np.array([_keep_sites(u_op, players), _weyl_product(q, logical_x(g, d), _keep_sites(v_rest, players))])


def test_steering_rows_are_the_code_unitaries():
    # every set of random graphs, stacked: a set with both witnesses gets the
    # exponent rows and phases of code_unitaries and of the generator-by-
    # generator product, every other set the identity rows, flagged fallback
    rng = np.random.default_rng(93)
    for q in (2, 3, 5, 7):
        for n in range(2, 7):
            g = dealer_graph(n, q, rng)
            sets = [b for size in range(n) for b in combinations(range(1, n), size)]
            rows, fallback = _steering(g, 0, sets)
            assert rows.shape == (len(sets), 2, 2 * n - 1)
            for b, row, fell in zip(sets, rows, fallback):
                dms, cms = witness_D(g, 0, b), witness_C(g, 0, [v for v in range(1, n) if v not in b])
                if dms is None or cms is None:
                    assert fell and not row.any()
                    continue
                assert not fell
                want = code_unitaries(g, 0, b, dms, cms).tolist()
                assert row.tolist() == want == folded_unitaries(g, 0, b, dms, cms).tolist()
            assert {bool(f) for f in fallback} == {False, True}


@pytest.mark.parametrize("case, error", [
    ("D off B", "D is supported outside the player set"),
    ("C dealer 2", "witness C must have dealer coefficient 1"),
    ("D leaks", "witness pair fails the access conditions"),
])
def test_corrupted_witness_rows_raise(case, error):
    # on the path 0-1-2-3, B = {1, 2} has D = {1: 1} and C = {0: 1};
    # one corrupted pair raises the same error through a stack of sets, the
    # stack of one and code_unitaries
    g, b, full = path4(), (1, 2), (1, 2, 3)
    d_row = witness_D(g, 0, b)
    c_row = witness_C(g, 0, [3])
    bad_d, bad_c = d_row.copy(), c_row.copy()
    if case == "D off B":
        bad_d[3] = 1
    elif case == "C dealer 2":
        bad_c = 2 * c_row % 3
    else:
        bad_d[2] = 1  # Gamma.D reaches vertex 3 as well as the dealer
    full_d, full_c = witness_D(g, 0, full), witness_C(g, 0, [])
    assert _steering_rows(g, 0, [b, full], np.array([d_row, full_d]), np.array([c_row, full_c])).shape == (2, 2, 7)
    for sets, d_rows, c_rows in (([full, b], [full_d, bad_d], [full_c, bad_c]), ([b], [bad_d], [bad_c])):
        with pytest.raises(ValueError, match=error):
            _steering_rows(g, 0, sets, np.array(d_rows), np.array(c_rows))
    with pytest.raises(ValueError, match=error):
        code_unitaries(g, 0, b, bad_d, bad_c)


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


@pytest.mark.parametrize("g, b", [(star3(), (1, 2)), (star3(), (1,)), (tri2(), (1, 2)), (rs_subgraph(), (1, 2, 3))])
def test_one_bell_decode_draws_two_uniforms(g, b):
    # oracle_reports hands every decode two uniforms of a set-by-set sweep,
    # a skipped complement decode included, so a decode must draw exactly two
    rng = np.random.default_rng(90)
    sec = random_secret(rng, g.q)
    enc = qq_encode(g, 0, sec)
    after_decode, after_skip = np.random.default_rng(91), np.random.default_rng(91)
    qq_decode_bell(g, 0, b, enc, after_decode, sec)
    after_skip.random(2)
    assert after_decode.bit_generator.state == after_skip.bit_generator.state


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_stand_in_decode_leaves_the_second_ancilla_in_plus(q):
    # identity stand-ins: X^{-1} and then Z^{-1} on the first ancilla, which
    # the first syndrome leaves in product with the second. On every one of
    # the q^2 syndromes the correction takes the second ancilla to |+>, so the
    # fidelity is |sum_i s_i|^2 / q whatever the secret and the codewords
    rng = np.random.default_rng(40 + q)
    g = dealer_graph(3, q, rng)
    mid = (np.arange(q) + 0.5) / q  # each label has probability 1/q
    uniforms = np.stack(np.meshgrid(mid, mid, indexing="ij"), axis=-1).reshape(-1, 2)
    secrets = np.array([random_secret(rng, q) for _ in uniforms])
    steering = np.zeros((len(uniforms), 2, 2 * g.n - 1), dtype=np.int64)
    encoded = _superpose(_codewords(g, 0, range(q), AMPLITUDE_BUDGET), secrets)
    rho, syndromes = _bell_decode(q, steering, encoded, uniforms, AMPLITUDE_BUDGET)
    assert {tuple(kl) for kl in syndromes.tolist()} == {(k, l) for k in range(q) for l in range(q)}
    assert abs(rho - np.full((q, q), 1 / q)).max() <= 1e-14
    closed = abs(secrets.sum(axis=-1)) ** 2 / q
    assert abs(np.array([*map(_fidelity, rho, secrets)]) - closed).max() <= 1e-14


def decode_one(g, d, b, encoded, rng):
    """The second ancilla's density after a Bell decode, as a stack of one."""
    return _bell_decode(g.q, _steering(g, d, [b])[0], encoded[None], rng.random((1, 2)), AMPLITUDE_BUDGET)[0][0]


def reference_reports(g, d, sets, rng):
    """oracle_reports as a set-by-set loop of stacks of one that decodes
    every nonempty complement and draws as it goes; returns the rows and the
    decodes skipped by oracle_reports."""
    words = _codewords(g, d, range(g.q), AMPLITUDE_BUDGET)
    players = [v for v in range(g.n) if v != d]
    rows, skipped = [], 0
    for b in sets:
        max_td = _set_trace_distances(words, [[players.index(v) for v in b]], AMPLITUDE_BUDGET)[0]
        secret = rng.normal(size=g.q) + 1j * rng.normal(size=g.q)
        secret = secret / np.linalg.norm(secret)
        encoded = _superpose(words, secret[None])[0]
        fid_b = _fidelity(decode_one(g, d, b, encoded, rng), secret)
        comp = tuple(v for v in players if v not in b)
        hidden = False
        if comp:
            fid_comp = _fidelity(decode_one(g, d, comp, encoded, rng), secret)
            hidden = fid_comp >= 1 - 1e-7 and max_td <= 1e-7
            skipped += max_td > 1e-7
        rows.append({
            "graph_hash": graph_hash(g),
            "B": list(b),
            "verdict_graph": QUANTUM_VERDICT[quantum_derivative(g, d, b)],
            "verdict_oracle": "accessible" if fid_b >= 1 - 1e-7 else "no_info" if hidden else "partial",
            "max_trace_distance": max_td,
            "decode_fidelity": fid_b,
        })
    return rows, skipped


def steered(g, d, b):
    """Whether the set has both witnesses, so that its Bell decode is simulated."""
    comp = [v for v in range(g.n) if v != d and v not in b]
    return witness_D(g, d, b) is not None and witness_C(g, d, comp) is not None


def steered_decodes(g, d, rows):
    """The decodes oracle_reports simulates for its rows: the sets with both
    witnesses, and such nonempty complements that the verdict reads and that
    are not swept themselves, as a swept complement's verdict reads its row."""
    swept = {tuple(row["B"]) for row in rows}
    comps = [tuple(v for v in range(g.n) if v != d and v not in row["B"]) for row in rows]
    read = [comp for comp, row in zip(comps, rows) if comp and comp not in swept and row["max_trace_distance"] <= 1e-7]
    return sum(steered(g, d, row["B"]) for row in rows) + sum(steered(g, d, comp) for comp in read)


def assert_rows_match(g, d, rows, reference):
    """rows are the reference rows bit for bit, but for the decode fidelity of
    a set without both witnesses: its closed form agrees with the simulated
    decode within 1e-14."""
    assert len(rows) == len(reference)
    for row, ref in zip(rows, reference):
        if not steered(g, d, row["B"]):
            assert abs(row["decode_fidelity"] - ref["decode_fidelity"]) <= 1e-14
            row, ref = ({**r, "decode_fidelity": None} for r in (row, ref))
        assert row == ref


@pytest.mark.parametrize("text", [
    "q 3\nn 5\ne 0 3 2\ne 0 4 1\ne 1 2 1\ne 2 3 1\ne 2 4 1\ne 3 4 1\n",
    "q 5\nn 4\ne 0 1 3\ne 0 2 1\ne 0 3 1\ne 1 2 2\ne 1 3 3\ne 2 3 1\n",
    "q 2\nn 6\ne 0 1 1\ne 0 2 1\ne 1 3 1\ne 2 4 1\ne 3 5 1\ne 4 5 1\ne 1 4 1\ne 2 5 1\n",
])
def test_oracle_reports_skip_only_unread_complement_decodes(monkeypatch, text):
    # on graphs with all three verdicts, the sweep with skipped complement
    # decodes writes the rows of a loop that decodes every complement, and
    # leaves the rng where that loop leaves it; it simulates only the decodes
    # of sets with both witnesses
    g = parse_graph(text)
    players = list(range(1, g.n))
    sets = [b for size in range(g.n) for b in combinations(players, size)]
    stacks = record_stacks(monkeypatch)
    swept, looped = np.random.default_rng(12), np.random.default_rng(12)
    rows = oracle_reports(g, 0, sets, swept)
    reference, skipped = reference_reports(g, 0, sets, looped)
    assert_rows_match(g, 0, rows, reference)
    assert sum(size for size, _ in stacks) == steered_decodes(g, 0, rows)
    assert swept.bit_generator.state == looped.bit_generator.state
    assert {row["verdict_oracle"] for row in rows} == {"accessible", "partial", "no_info"}
    assert 0 < skipped < len(sets) - 1


def record_stacks(monkeypatch):
    """The number of rows of every stack the oracle's Bell decode runs on,
    with the amplitudes it holds, the q powers counted. No stack may hold an
    identity stand-in, a row of all-zero exponents."""
    stacks, decode = [], qss.oracle._bell_decode

    def recorded(q, steering, encoded, uniforms, budget):
        assert steering.any(axis=(1, 2)).all(), "a set without both witnesses reached the decode"
        stacks.append((len(encoded), len(encoded) * q**3 * encoded.shape[1]))
        return decode(q, steering, encoded, uniforms, budget)

    monkeypatch.setattr(qss.oracle, "_bell_decode", recorded)
    return stacks


@pytest.mark.parametrize("q, n", [(2, 9), (3, 6), (5, 4)])
def test_oracle_reports_in_several_stacks_are_the_stacks_of_one(monkeypatch, q, n):
    # a sweep whose steered decodes fill several stacks writes, bit for bit,
    # the rows of a set-by-set loop of stacks of one, and leaves the rng where
    # that loop leaves it; no stack holds more than STACK_CAP amplitudes
    g = dealer_graph(n, q, np.random.default_rng(97 + q))
    sets = [b for size in range(n) for b in combinations(range(1, n), size)]
    stacks = record_stacks(monkeypatch)
    swept, looped = np.random.default_rng(13), np.random.default_rng(13)
    rows = oracle_reports(g, 0, sets, swept)
    assert [size for size, _ in stacks if size > 1] and max(amps for _, amps in stacks) <= STACK_CAP
    assert sum(size for size, _ in stacks) == steered_decodes(g, 0, rows) > max(size for size, _ in stacks)
    assert_rows_match(g, 0, rows, reference_reports(g, 0, sets, looped)[0])
    assert swept.bit_generator.state == looped.bit_generator.state


def test_oracle_reports_bell_decode_in_one_pass(monkeypatch):
    # at q = 2, n = 6 the steered sets and complements the verdict reads (the
    # empty set's, at least) fill one stack, so one _bell_decode call decodes
    # them all and still writes the rows of the set-by-set loop
    g = parse_graph("q 2\nn 6\ne 0 1 1\ne 0 2 1\ne 1 3 1\ne 2 4 1\ne 3 5 1\ne 4 5 1\ne 1 4 1\ne 2 5 1\n")
    sets = [b for size in range(6) for b in combinations(range(1, 6), size)]
    stacks = record_stacks(monkeypatch)
    swept, looped = np.random.default_rng(16), np.random.default_rng(16)
    rows = oracle_reports(g, 0, sets, swept)
    assert len(stacks) == 1 and stacks[0][0] == steered_decodes(g, 0, rows) > 1
    assert_rows_match(g, 0, rows, reference_reports(g, 0, sets, looped)[0])
    assert swept.bit_generator.state == looped.bit_generator.state


def test_decodes_past_the_stack_cap_run_as_stacks_of_one(monkeypatch):
    # q = 3, n = 8: one decode's 3^9 amplitudes, times q powers, exceed the cap
    g = dealer_graph(8, 3, np.random.default_rng(99))
    assert 3 ** (8 + 2) > STACK_CAP
    sets = [(), (1,), (1, 2), (3, 5, 7), (2, 3, 4, 5), tuple(range(1, 8))]
    stacks = record_stacks(monkeypatch)
    swept, looped = np.random.default_rng(14), np.random.default_rng(14)
    rows = oracle_reports(g, 0, sets, swept)
    assert {size for size, _ in stacks} == {1} and len(stacks) == steered_decodes(g, 0, rows) > 1
    assert_rows_match(g, 0, rows, reference_reports(g, 0, sets, looped)[0])
    assert swept.bit_generator.state == looped.bit_generator.state


def test_sweeps_decode_no_set_without_both_witnesses(monkeypatch):
    # the empty set's fidelity takes the closed form; its trace distance is 0,
    # so the verdict reads its complement, the whole player set, which has
    # both witnesses: one decode of one row. The partial set (1, 4), at trace
    # distance 1, has no witness C and its complement is not read: no decode.
    # Both sweeps still check the decode's budget: the q = 2, n = 5 codewords
    # fit 2^4 amplitudes, a decode needs 2^6
    g = parse_graph("q 2\nn 5\ne 0 1 1\ne 0 2 1\ne 1 3 1\ne 2 3 1\ne 3 4 1\ne 1 4 1\n")
    for sets, decoded in (([()], [1]), ([(1, 4)], [])):
        stacks = record_stacks(monkeypatch)
        swept, looped = np.random.default_rng(18), np.random.default_rng(18)
        rows = oracle_reports(g, 0, sets, swept)
        assert [size for size, _ in stacks] == decoded and not steered(g, 0, sets[0])
        assert_rows_match(g, 0, rows, reference_reports(g, 0, sets, looped)[0])
        assert swept.bit_generator.state == looped.bit_generator.state
        with pytest.raises(BudgetExceeded, match="^64 amplitudes exceed the budget"):
            oracle_reports(g, 0, sets, np.random.default_rng(17), budget=32)


def record_steering(monkeypatch):
    """The steering rows of every decode the oracle's Bell decode runs, as bytes."""
    decoded, decode = [], qss.oracle._bell_decode

    def recorded(q, steering, *args):
        decoded.extend(map(np.ndarray.tobytes, steering))
        return decode(q, steering, *args)

    monkeypatch.setattr(qss.oracle, "_bell_decode", recorded)
    return decoded


Q2N6 = "q 2\nn 6\ne 0 1 1\ne 0 2 1\ne 1 3 1\ne 2 4 1\ne 3 5 1\ne 4 5 1\ne 1 4 1\ne 2 5 1\n"


@pytest.mark.parametrize("text", [
    Q2N6,
    "q 3\nn 5\ne 0 3 2\ne 0 4 1\ne 1 2 1\ne 2 3 1\ne 2 4 1\ne 3 4 1\n",
    "q 5\nn 4\ne 0 1 3\ne 0 2 1\ne 0 3 1\ne 1 2 2\ne 1 3 3\ne 2 3 1\n",
], ids=["q2n6", "q3n5", "q5n4"])
def test_full_sweeps_decode_each_steered_set_once(monkeypatch, text):
    # every complement of a full sweep is a swept set, so a no_info verdict
    # reads its complement's own row: _bell_decode gets the sets with both
    # witnesses, each once, though the verdicts read complements too
    g = parse_graph(text)
    sets = [b for size in range(g.n) for b in combinations(range(1, g.n), size)]
    decoded = record_steering(monkeypatch)
    rows = oracle_reports(g, 0, sets, np.random.default_rng(19))
    steered_sets = [b for b in sets if steered(g, 0, b)]
    assert sorted(decoded) == sorted(map(np.ndarray.tobytes, _steering(g, 0, steered_sets)[0]))
    assert "no_info" in {row["verdict_oracle"] for row in rows}


def test_sweeps_up_to_one_player_decode_the_complement_of_the_empty_set(monkeypatch):
    # oracle-verify --max-size 1 sweeps (), (1,), ..., (5,): the empty set's
    # verdict reads its complement, all five players, which is not swept and
    # takes its own decode row, on the empty set's secret and draws, as do the
    # four-player complements the single players' verdicts read
    g, players = parse_graph(Q2N6), tuple(range(1, 6))
    sets = [(), *((v,) for v in players)]
    decoded = record_steering(monkeypatch)
    swept, looped = np.random.default_rng(20), np.random.default_rng(20)
    rows = oracle_reports(g, 0, sets, swept)
    assert _steering(g, 0, [players])[0][0].tobytes() in decoded and rows[0]["verdict_oracle"] == "no_info"
    assert len(decoded) == steered_decodes(g, 0, rows)
    assert_rows_match(g, 0, rows, reference_reports(g, 0, sets, looped)[0])
    assert swept.bit_generator.state == looped.bit_generator.state


def test_a_repeated_set_reads_the_same_verdicts():
    # a set swept twice, around another, is decoded once per occurrence on
    # its own secret: both rows get the same verdicts and trace distance,
    # the no_info ones from two decodes of the same unswept complement
    g = parse_graph(Q2N6)
    c = (1, 2, 3, 4, 5)
    verdicts = set()
    for b in (b for size in range(5) for b in combinations(range(1, 6), size)):
        first, _, again = oracle_reports(g, 0, [b, c, b], np.random.default_rng(21))
        keys = ("B", "verdict_graph", "verdict_oracle", "max_trace_distance")
        assert {key: first[key] for key in keys} == {key: again[key] for key in keys}
        verdicts.add(first["verdict_oracle"])
    assert verdicts == {"accessible", "partial", "no_info"}


@pytest.mark.parametrize("graph", [
    "q 3\nn 5\ne 0 1 1\ne 1 2 1\ne 2 3 1\ne 3 4 1\n",  # four players where the graph has three
    "q 5\nn 4\ne 0 1 1\ne 1 2 1\ne 2 3 1\n",  # q = 5 players on a q = 3 graph
], ids=["four-players", "q5-players"])
def test_qq_decode_bell_rejects_a_register_off_the_graph(graph):
    other = parse_graph(graph)
    encoded = qq_encode(other, 0, np.eye(other.q)[0])
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="operator does not match the state register"):
        qq_decode_bell(path4(), 0, [1, 2], encoded, rng, expected=[1.0, 0.0, 0.0])
    assert rng.bit_generator.state == state


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


def test_bell_measure_recovers_prepared_label():
    # E1's Bell measurement: controlled-X^{-1}, then Fourier^dagger on the
    # first site, then Z on both, labels (Z^k x X^l) sum_i |ii> / sqrt(q) as (k, l)
    q = 3
    rng = np.random.default_rng(87)
    pair = StateVector(q, 2, np.eye(q).reshape(-1) / np.sqrt(q))
    for k in range(q):
        for l in range(q):
            state = apply_weyl(pair, weyl((0, l), (k, 0)))
            state = apply_controlled(state, 0, weyl((-1,), (0,)))
            state = StateVector(q, 2, _on_site(q, state.amplitudes[None], 0, _fourier_matrix(q).conj().T)[0])
            got_k, state = measure_weyl(state, weyl((0, 0), (1, 0)), rng)
            got_l, _ = measure_weyl(state, weyl((0, 0), (0, 1)), rng)
            assert (got_k, got_l) == (k, l)


def test_apply_controlled_entangles():
    q = 3
    both = StateVector(q, 2, np.kron(np.ones(q) / np.sqrt(q), basis(q, 0)))
    out = apply_controlled(both, 0, weyl((1,), (0,)))
    grid = out.amplitudes.reshape(q, q)
    for j in range(q):
        assert grid[j, j] == pytest.approx(1 / np.sqrt(q))
    assert schmidt_rank(out, [0]) == q


def test_apply_controlled_rejects_an_operator_off_the_register():
    # the control leaves one target site
    both = StateVector(3, 2, np.kron(np.ones(3) / np.sqrt(3), basis(3, 0)))
    with pytest.raises(ValueError, match="does not match the state register"):
        apply_controlled(both, 0, weyl((1, 0), (0, 0)))


@pytest.mark.parametrize("control", [-1, 2, 5])
def test_apply_controlled_rejects_a_control_off_the_register(control):
    # -1 would otherwise wrap to the last site
    both = StateVector(3, 2, np.kron(np.ones(3) / np.sqrt(3), basis(3, 0)))
    with pytest.raises(ValueError, match="sites outside the register"):
        apply_controlled(both, control, weyl((1,), (0,)))
    assert apply_controlled(both, 1, weyl((1,), (0,))).n == 2


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
    assert np.linalg.norm(joint.amplitudes) == pytest.approx(1.0)


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
