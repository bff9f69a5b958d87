"""Exact mod-p linear algebra: ranks, kernels, solves, echelon forms.

The rank routines are cross-checked against a brute-force span oracle for
small matrices, since everything above them (cut ranks, access verdicts,
scheme search) reduces to these calls.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qss.fqlinalg import (
    FIELD_SIZE_CEILING,
    batch_border_indicators_mod,
    batch_rank_mod,
    inv_mod,
    is_prime,
    kernel_basis_mod,
    rank_mod,
    reduced_column_echelon_mod,
    require_prime,
    rref_mod,
    solve_affine_mod,
)

from helpers import int_rank, int_rref

PRIMES = [2, 3, 5, 7]
LARGEST_PRIME = 1048573  # the largest prime below FIELD_SIZE_CEILING = 2**20


def kernel_entries(q):
    """Matrix entries for the kernel property tests: 0, 1 and q - 1 often
    (q - 1 gives the largest products, (q - 1)^2, at LARGEST_PRIME), any
    residue, and int64 values outside [0, q) that the entry reduction must
    handle."""
    return st.one_of(
        st.sampled_from([0, 1, q - 1]),
        st.integers(0, q - 1),
        st.sampled_from([-1, -q, 2**62 + 1]),
    )


def span_size_rank(a, q):
    """Rank via the size of the row span, |span| = q^rank.

    Exponential, so only used as an independent oracle on tiny matrices.
    """
    a = np.asarray(a, dtype=np.int64) % q
    rows = a.shape[0]
    seen = set()
    for coeffs in np.ndindex(*([q] * rows)):
        v = (np.array(coeffs, dtype=np.int64) @ a) % q
        seen.add(tuple(v.tolist()))
    size = len(seen)
    rank = 0
    while q**rank < size:
        rank += 1
    assert q**rank == size, "row span size must be a power of q"
    return rank


def test_is_prime_small_values():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)


def test_require_prime_rejects_composites():
    assert require_prime(13) == 13
    with pytest.raises(ValueError):
        require_prime(9)


def test_require_prime_field_size_ceiling():
    # rejected before trial division, so these calls allocate and loop nothing
    for q in (4294967311, FIELD_SIZE_CEILING, 2**31 - 1):
        with pytest.raises(ValueError, match="ceiling"):
            require_prime(q)
    assert require_prime(LARGEST_PRIME) == LARGEST_PRIME


def test_ranks_exact_just_below_ceiling():
    q = LARGEST_PRIME
    rng = np.random.default_rng(18)
    mats = [rng.integers(0, q, size=(4, 5)) for _ in range(20)]
    # products of thin factors have rank at most the inner size
    mats += [rng.integers(0, q, size=(4, r)) @ rng.integers(0, q, size=(r, 5)) % q for r in (1, 2, 3) for _ in range(10)]
    want = [int_rank(m.tolist(), q) for m in mats]
    assert sorted(set(want)) == [1, 2, 3, 4]
    assert [rank_mod(m, q) for m in mats] == want
    assert batch_rank_mod(np.stack(mats), q).tolist() == want


def test_ranks_exact_where_a_bare_float_quotient_errs():
    # for 92 of the multiples a = m * 197 with |m| < 197, floor(a * (1/197))
    # rounds to m - 1; the kernel's floor((a + 1/2) * (1/q)) does not, and
    # rank-deficient matrices make such multiples in their eliminated rows
    q = 197
    rng = np.random.default_rng(20)
    mats = [rng.integers(0, q, size=(5, r)) @ rng.integers(0, q, size=(r, 6)) % q for r in (1, 2, 3, 4) for _ in range(10)]
    want = [int_rank(m.tolist(), q) for m in mats]
    assert sorted(set(want)) == [1, 2, 3, 4]
    assert [rank_mod(m, q) for m in mats] == want
    assert batch_rank_mod(np.stack(mats), q).tolist() == want


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.sampled_from(PRIMES + [LARGEST_PRIME]),
    st.integers(1, 4),
    st.integers(0, 5),
    st.integers(0, 5),
    st.data(),
)
def test_rank_kernels_match_pure_int_reference(q, count, rows, cols, data):
    # many zeros and repeated entries give rank-deficient matrices
    entry = kernel_entries(q)
    flat = data.draw(st.lists(entry, min_size=count * rows * cols, max_size=count * rows * cols))
    mats = np.array(flat, dtype=np.int64).reshape(count, rows, cols)
    want = [int_rank(m.tolist(), q) for m in mats]
    assert batch_rank_mod(mats, q).tolist() == want
    assert [rank_mod(m, q) for m in mats] == want


def test_inverse_values_mod_7():
    assert inv_mod(1, 7) == 1
    assert inv_mod(6, 7) == 6
    assert inv_mod(3, 7) == 5


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        inv_mod(0, 5)
    with pytest.raises(ZeroDivisionError):
        inv_mod(10, 5)


def test_inverse_roundtrip_all_elements():
    for q in PRIMES:
        for a in range(1, q):
            assert (a * inv_mod(a, q)) % q == 1


def test_rank_identity_f5():
    assert rank_mod(np.eye(3, dtype=np.int64), 5) == 3


def test_rank_zero_matrix():
    assert rank_mod(np.zeros((4, 6), dtype=np.int64), 3) == 0


def test_rank_dependent_rows_f5():
    assert rank_mod([[1, 2], [2, 4]], 5) == 1


def test_rank_empty_shapes():
    assert rank_mod(np.zeros((0, 4), dtype=np.int64), 3) == 0
    assert rank_mod(np.zeros((4, 0), dtype=np.int64), 3) == 0


def test_rank_transpose_symmetry_random():
    rng = np.random.default_rng(11)
    for q in PRIMES:
        for _ in range(500):
            rows, cols = rng.integers(1, 7, size=2)
            a = rng.integers(0, q, size=(rows, cols))
            assert rank_mod(a, q) == rank_mod(a.T, q)


def test_rank_against_span_oracle():
    rng = np.random.default_rng(12)
    for q in (2, 3):
        for _ in range(120):
            rows = int(rng.integers(1, 4))
            cols = int(rng.integers(1, 4))
            a = rng.integers(0, q, size=(rows, cols))
            assert rank_mod(a, q) == span_size_rank(a, q)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(PRIMES + [LARGEST_PRIME]), st.integers(0, 5), st.integers(0, 6), st.data())
def test_rref_matches_pure_int_gauss_jordan(q, rows, cols, data):
    entry = st.one_of(st.just(0), st.just(1), st.integers(0, q - 1))
    flat = data.draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
    a = np.array(flat, dtype=np.int64).reshape(rows, cols)
    want_rows, want_pivots = int_rref(a.tolist(), q)
    r, pivots = rref_mod(a, q)
    assert r.shape == (rows, cols)
    assert r.tolist() == want_rows
    assert pivots == want_pivots


def test_rref_pivots_are_unit_columns():
    rng = np.random.default_rng(13)
    for q in (3, 7):
        for _ in range(50):
            a = rng.integers(0, q, size=(4, 5))
            r, pivots = rref_mod(a, q)
            for i, col in enumerate(pivots):
                expected = np.zeros(4, dtype=np.int64)
                expected[i] = 1
                assert np.array_equal(r[:, col], expected)


def test_kernel_of_identity_is_empty():
    basis = kernel_basis_mod(np.eye(4, dtype=np.int64), 5)
    assert basis.shape == (4, 0)


def test_kernel_of_zero_matrix_is_standard_basis():
    basis = kernel_basis_mod(np.zeros((2, 3), dtype=np.int64), 5)
    assert basis.shape == (3, 3)
    assert np.array_equal(basis % 5, np.eye(3, dtype=np.int64))


def test_kernel_of_rank_one_matrix_f5():
    # all annihilated vectors of [[1,2],[2,4]] are multiples of (3,1)
    basis = kernel_basis_mod([[1, 2], [2, 4]], 5)
    assert basis.shape == (2, 1)
    v = basis[:, 0]
    assert v[1] != 0
    scale = inv_mod(int(v[1]), 5)
    assert np.array_equal((v * scale) % 5, np.array([3, 1]))


def test_kernel_dimension_formula_and_membership():
    rng = np.random.default_rng(14)
    for q in PRIMES:
        for _ in range(200):
            rows, cols = rng.integers(1, 6, size=2)
            a = rng.integers(0, q, size=(rows, cols))
            basis = kernel_basis_mod(a, q)
            assert basis.shape[1] == cols - rank_mod(a, q)
            assert not ((a @ basis) % q).any()


def test_solve_identity_returns_rhs():
    sol = solve_affine_mod(np.eye(3, dtype=np.int64), [2, 0, 4], 5)
    assert sol is not None
    assert np.array_equal(sol, [2, 0, 4])


def test_solve_inconsistent_returns_none():
    assert solve_affine_mod(np.zeros((2, 2), dtype=np.int64), [1, 0], 5) is None


def test_solve_column_system_f3():
    sol = solve_affine_mod([[1], [0]], [1, 0], 3)
    assert sol is not None
    assert sol.tolist() == [1]


def test_solve_random_systems_verify_by_multiplication():
    rng = np.random.default_rng(15)
    for q in PRIMES:
        for _ in range(150):
            rows, cols = rng.integers(1, 6, size=2)
            a = rng.integers(0, q, size=(rows, cols))
            x_true = rng.integers(0, q, size=cols)
            b = (a @ x_true) % q
            sol = solve_affine_mod(a, b, q)
            assert sol is not None
            assert np.array_equal((a @ sol) % q, b)


def test_solve_shape_mismatch():
    with pytest.raises(ValueError):
        solve_affine_mod(np.eye(2, dtype=np.int64), [1, 2, 3], 5)


def test_column_echelon_identity_and_zero():
    eye = np.eye(3, dtype=np.int64)
    assert np.array_equal(reduced_column_echelon_mod(eye, 5), eye)
    zero = np.zeros((2, 3), dtype=np.int64)
    assert np.array_equal(reduced_column_echelon_mod(zero, 5), zero)


def test_column_echelon_rank_one_f5():
    out = reduced_column_echelon_mod([[2, 4], [1, 2]], 5)
    assert np.array_equal(out, [[1, 0], [3, 0]])


def test_column_echelon_idempotent_and_span_preserving():
    rng = np.random.default_rng(16)
    for q in (2, 5):
        for _ in range(100):
            a = rng.integers(0, q, size=(4, 4))
            e = reduced_column_echelon_mod(a, q)
            assert np.array_equal(reduced_column_echelon_mod(e, q), e)
            # same column span: stacking side by side does not raise the rank
            assert rank_mod(np.hstack([a, e]), q) == rank_mod(a, q) == rank_mod(e, q)


def test_batch_rank_matches_scalar_rank():
    rng = np.random.default_rng(17)
    for q in PRIMES:
        mats = rng.integers(0, q, size=(64, 5, 4))
        got = batch_rank_mod(mats, q)
        want = np.array([int_rank(m.tolist(), q) for m in mats])
        assert np.array_equal(got, want)


def test_batch_rank_mixed_degenerate_stack():
    q = 3
    mats = np.stack([
        np.zeros((3, 3), dtype=np.int64),
        np.eye(3, dtype=np.int64),
        np.array([[1, 2, 0], [2, 0, 1], [0, 0, 0]]),
    ])
    assert batch_rank_mod(mats, q).tolist() == [0, 3, 2]


def test_batch_rank_empty_and_bad_shapes():
    assert batch_rank_mod(np.zeros((0, 2, 2), dtype=np.int64), 3).shape == (0,)
    assert batch_rank_mod(np.zeros((5, 0, 2), dtype=np.int64), 3).tolist() == [0] * 5
    with pytest.raises(ValueError):
        batch_rank_mod(np.zeros((2, 2), dtype=np.int64), 3)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.sampled_from(PRIMES + [LARGEST_PRIME]),
    st.integers(0, 4),
    st.integers(0, 5),
    st.integers(0, 5),
    st.data(),
)
def test_border_indicators_match_pure_int_reference(q, count, m, w, data):
    # stacks of bordered matrices [[M, c], [r, x]] with M of shape m x w
    entry = kernel_entries(q)
    size = count * (m + 1) * (w + 1)
    mats = np.array(data.draw(st.lists(entry, min_size=size, max_size=size)), dtype=np.int64)
    mats = mats.reshape(count, m + 1, w + 1)
    c_outside, r_outside = batch_border_indicators_mod(mats, q)
    assert c_outside.shape == r_outside.shape == (count,)
    for got_c, got_r, mat in zip(c_outside, r_outside, mats):
        rank_m = int_rank(mat[:m, :w].tolist(), q)
        assert got_c == int_rank(mat[:m, :].tolist(), q) - rank_m  # [M | c]
        assert got_r == int_rank(mat[:, :w].tolist(), q) - rank_m  # [M ; r]


def test_kernels_accept_strided_stacks():
    # views that are not C-contiguous: every other matrix of a transposed
    # stack with its columns reversed, and single matrices cut from it
    rng = np.random.default_rng(19)
    for q in (3, LARGEST_PRIME):
        full = rng.integers(-q, 2 * q, size=(5, 12, 6))
        full[:, :4] = np.einsum("ik,kjc->ijc", rng.integers(0, q, size=(5, 2)), full[:2, :4]) % q
        mats = full.transpose(1, 0, 2)[::2, :, ::-1]
        assert mats.shape == (6, 5, 6) and not mats.flags.c_contiguous
        want = [int_rank(m.tolist(), q) for m in mats]
        assert min(want) <= 2
        assert batch_rank_mod(mats, q).tolist() == want
        assert [rank_mod(m, q) for m in mats] == want
        assert [rref_mod(m, q)[0].tolist() for m in mats] == [int_rref(m.tolist(), q)[0] for m in mats]
        c_outside, r_outside = batch_border_indicators_mod(mats, q)
        for got_c, got_r, mat in zip(c_outside, r_outside, mats):
            rank_m = int_rank(mat[:-1, :-1].tolist(), q)
            assert got_c == int_rank(mat[:-1, :].tolist(), q) - rank_m
            assert got_r == int_rank(mat[:, :-1].tolist(), q) - rank_m


def test_kernel_calls_of_changing_shapes_share_the_scratch_buffer():
    # the elimination reuses one scratch buffer that grows to the largest
    # stack: stacks that grow, shrink and grow past it again, in other
    # shapes and fields, must each match the reference, and no result kept
    # from an earlier call may change under a later one
    rng = np.random.default_rng(29)
    kept = []
    for q, count, rows, cols in [
        (3, 3000, 5, 6),
        (LARGEST_PRIME, 2, 3, 3),
        (2, 40, 7, 2),
        (5, 1, 6, 6),
        (LARGEST_PRIME, 2500, 4, 5),
        (7, 3, 2, 8),
        (3, 3200, 6, 5),
    ]:
        mats = rng.integers(0, q, size=(count, rows, cols))
        # every other matrix has rank at most 2, so both span tests vary
        low = rng.integers(0, q, size=(count, rows, 2)) @ rng.integers(0, q, size=(count, 2, cols)) % q
        mats[::2] = low[::2]
        c_outside, r_outside = batch_border_indicators_mod(mats, q)
        for got_c, got_r, mat in zip(c_outside, r_outside, mats):
            rank_m = int_rank(mat[:-1, :-1].tolist(), q)
            assert got_c == int_rank(mat[:-1, :].tolist(), q) - rank_m
            assert got_r == int_rank(mat[:, :-1].tolist(), q) - rank_m
        r, pivots = rref_mod(mats[-1], q)
        assert (r.tolist(), pivots) == int_rref(mats[-1].tolist(), q)
        kept.append(((c_outside, r_outside, r), (c_outside.copy(), r_outside.copy(), r.copy())))
        for results, copies in kept:
            assert all(np.array_equal(a, b) for a, b in zip(results, copies))


def test_border_indicators_degenerate_shapes():
    q = 5
    # M with no rows (B empty): only r is tested, against the zero span
    c_out, r_out = batch_border_indicators_mod(np.array([[[0, 3, 1]], [[0, 0, 4]]]), q)
    assert c_out.tolist() == [False, False]
    assert r_out.tolist() == [True, False]
    # M with no columns (B + {d} = V): only c is tested, against the zero span
    c_out, r_out = batch_border_indicators_mod(np.array([[[0], [2], [1]], [[0], [0], [3]]]), q)
    assert c_out.tolist() == [True, False]
    assert r_out.tolist() == [False, False]
    # c and r inside the spans of a full-rank M, and the corner ignored
    c_out, r_out = batch_border_indicators_mod(np.array([[[1, 2, 3], [0, 1, 4], [1, 3, 2]]]), q)
    assert (c_out.tolist(), r_out.tolist()) == ([False], [False])
    for shape in ((0, 3, 4), (0, 1, 1)):
        c_out, r_out = batch_border_indicators_mod(np.zeros(shape, dtype=np.int64), q)
        assert c_out.shape == r_out.shape == (0,)
    for shape in ((2, 0, 3), (2, 3, 0)):
        with pytest.raises(ValueError, match="border"):
            batch_border_indicators_mod(np.zeros(shape, dtype=np.int64), q)
    with pytest.raises(ValueError):
        batch_border_indicators_mod(np.zeros((3, 3), dtype=np.int64), q)
    with pytest.raises(ValueError, match="prime"):
        batch_border_indicators_mod(np.zeros((1, 2, 2), dtype=np.int64), 4)
