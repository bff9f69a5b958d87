"""Exact mod-p linear algebra: ranks, kernels, solves, echelon forms.

The rank routines are cross-checked against a brute-force span oracle for
small matrices, since everything above them (cut ranks, access verdicts,
scheme search) reduces to these calls.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qss.fqlinalg
from qss.access import batch_indicators
from qss.search import batch_accessible_at_k
from qss.fqlinalg import (
    SCRATCH_CAP,
    FIELD_SIZE_CEILING,
    _border_indicators,
    _eliminate,
    _kernel_type,
    _pivot_rows,
    _residues,
    _solve_stack,
    as_integers,
    batch_rank_mod,
    inv_mod,
    is_prime,
    kernel_basis_mod,
    rank_mod,
    require_prime,
    solve_affine_mod,
)

from helpers import int_kernel, int_rank, int_rref, int_solve

PRIMES = [2, 3, 5, 7]
LARGEST_PRIME = 1048573  # the largest prime below FIELD_SIZE_CEILING = 2**20
# the largest and least prime of each kernel type (int8 up to 11, int16 up
# to 181, int32 up to 46337, int64 from 46349), the primes around 2**11
# and below 2**12, where an earlier float32 kernel changed type and would
# have erred, and the ceiling's
BOUNDARY_PRIMES = [11, 13, 181, 191, 2039, 2053, 4093, 46337, 46349, LARGEST_PRIME]


def pivot_rref(a, q):
    """The RREF of a and its pivot columns as int_rref gives them, read off
    _pivot_rows of a stack-of-one elimination, the rows that _solve_stack
    and kernel_basis_mod read: the pivot rows in pivot order, zero rows
    below."""
    arr = as_integers(a, "matrix entries")
    rows, cols = arr.shape
    _, pivots, r = _pivot_rows(*_eliminate(_residues(arr[:, :, None], q), q, rows, cols), q)
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return [r[i].tolist() for i in order] + [[0] * cols] * (rows - len(order)), [int(pivots[i]) for i in order]


def assert_echelon_routes(mat, q):
    """pivot_rref and kernel_basis_mod of mat against the int_rref references."""
    assert pivot_rref(mat, q) == int_rref(mat.tolist(), q)
    assert kernel_basis_mod(mat, q).tolist() == int_kernel(mat.tolist(), mat.shape[1], q)


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


@pytest.mark.parametrize(
    "routine", [is_prime, require_prime, lambda a: inv_mod(a, 11)], ids=["is_prime", "require_prime", "inv_mod"]
)
def test_scalar_routines_truncate_no_input(routine):
    # the field scalars pass the integer check of matrix entries
    # (as_integers): an integral float or a numpy integer reads as the
    # integer it equals, and a fraction, a NaN or an infinity raises
    for integral in (7.0, np.int64(7), np.int8(7), np.uint64(7)):
        assert routine(integral) == routine(7)
    for bad in (7.5, float("nan"), float("inf"), np.float32(1.5)):
        with pytest.raises(ValueError, match="must be integers within int64"):
            routine(bad)


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
    # rounds to m - 1, and rank-deficient matrices make such multiples in
    # their eliminated rows; the kernel's integer floor division must take
    # each to 0
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


def test_elimination_type_is_the_narrowest_integer_holding_a_step():
    # int8 up to 11, int16 up to 181, int32 up to 46337 and int64 above
    pins = [(2, np.int8), (11, np.int8), (13, np.int16), (181, np.int16)]
    pins += [(191, np.int32), (46337, np.int32), (46349, np.int64), (LARGEST_PRIME, np.int64)]
    assert [_kernel_type(q) for q, _ in pins] == [t for _, t in pins]
    for q, kind in pins:
        # a step lies in [-(q - 1)^2, (q - 1)^2] and the q * (a // q) of its
        # reduction in [-q(q - 1), (q - 1)^2]
        assert np.iinfo(kind).min <= -q * (q - 1) and (q - 1) ** 2 <= np.iinfo(kind).max
    # the least prime past each boundary overflows the narrower type
    for q, narrower in [(13, np.int8), (191, np.int16), (46349, np.int32)]:
        assert -((q - 1) ** 2) < np.iinfo(narrower).min


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from(BOUNDARY_PRIMES),
    st.integers(1, 4),
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(1, 3),
    st.data(),
)
def test_kernels_exact_on_both_sides_of_each_type_boundary(q, count, rows, cols, inner, data):
    # entries cluster at 0 and q - 1, where the steps reach their largest
    # magnitudes, near q^2; the even matrices are products of thin factors,
    # whose eliminated rows are multiples of q that must reduce to 0
    def draw(*shape):
        near = st.one_of(st.integers(0, 2), st.integers(q - 3, q - 1))
        size = int(np.prod(shape))
        return np.array(data.draw(st.lists(near, min_size=size, max_size=size)), dtype=np.int64).reshape(shape)

    mats = draw(count, rows, cols)
    mats[::2] = (draw(count, rows, inner) @ draw(count, inner, cols) % q)[::2]
    for mat in mats:
        assert rank_mod(mat, q) == int_rank(mat.tolist(), q)
        assert_echelon_routes(mat, q)
        a, b = mat[:, :-1], mat[:, -1]
        x = solve_affine_mod(a, b, q)
        if int_rank(mat.tolist(), q) > int_rank(a.tolist(), q):
            assert x is None
        else:
            assert [sum(u * v for u, v in zip(row, x.tolist())) % q for row in a.tolist()] == b.tolist()
    c_outside, r_outside = _border_indicators(_residues(mats.transpose(1, 2, 0), q), q)
    for got_c, got_r, mat in zip(c_outside, r_outside, mats):
        rank_m = int_rank(mat[:-1, :-1].tolist(), q)
        assert got_c == int_rank(mat[:-1, :].tolist(), q) - rank_m
        assert got_r == int_rank(mat[:, :-1].tolist(), q) - rank_m


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


@pytest.mark.parametrize("q", [2, 7, 2053, LARGEST_PRIME])
def test_pivot_rows_invert_each_distinct_pivot_once(monkeypatch, q):
    # 40 matrices of 4 x 5 whose pivot rows share three pivot values: each
    # row comes back scaled by pow(pivot, -1, q), from one inverse per value
    rng = np.random.default_rng(q)
    rows, cols, count = 4, 5, 40
    values = rng.choice(rng.integers(1, q, size=3), size=(rows, count))
    lead = rng.integers(0, cols, size=(rows, count))
    col = np.arange(cols)[None, :, None]
    stack = np.where(col < lead[:, None], 0, rng.integers(0, q, size=(rows, cols, count)))
    stack = np.where(col == lead[:, None], values[:, None], stack).astype(_kernel_type(q))
    used = rng.random((rows, count)) < 0.7
    calls, inverse = [], qss.fqlinalg.inv_mod
    monkeypatch.setattr(qss.fqlinalg, "inv_mod", lambda a, q: calls.append(a) or inverse(a, q))
    matrix, pivots, scaled = _pivot_rows(stack, used, q)
    row, mat = np.nonzero(used)
    assert matrix.tolist() == mat.tolist() and pivots.tolist() == lead[row, mat].tolist()
    assert sorted(calls) == sorted(set(values[used].tolist()))
    for got, i, m in zip(scaled.tolist(), row, mat):
        assert got == [int(v) * pow(int(values[i, m]), -1, q) % q for v in stack[i, :, m]]


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
    r, pivots = pivot_rref(a, q)
    assert len(r) == rows and all(len(row) == cols for row in r)
    assert r == want_rows
    assert pivots == want_pivots
    assert kernel_basis_mod(a, q).tolist() == int_kernel(a.tolist(), cols, q)


def test_rref_pivots_are_unit_columns():
    rng = np.random.default_rng(13)
    for q in (3, 7):
        for _ in range(50):
            a = rng.integers(0, q, size=(4, 5))
            r, pivots = pivot_rref(a, q)
            r = np.array(r)
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
    for q in PRIMES + [2053]:
        for _ in range(200):
            rows, cols = rng.integers(0, 6, size=2)
            a = rng.integers(0, q, size=(rows, cols))
            basis = kernel_basis_mod(a, q)
            assert basis.shape == (cols, cols - rank_mod(a, q))
            assert rank_mod(basis, q) == basis.shape[1]
            assert not ((a @ basis) % q).any()


@pytest.mark.parametrize("rows, cols", [(30, 60), (60, 120)])
def test_kernel_of_wide_matrices_matches_int_kernel(rows, cols):
    # a full-rank matrix, and one of rank rows / 2 whose pivots skip columns
    rng = np.random.default_rng(rows)
    full = rng.integers(0, 5, size=(rows, cols))
    deficient = rng.integers(0, 5, size=(rows, rows // 2)) @ rng.integers(0, 5, size=(rows // 2, cols))
    deficient[:, : cols // 4] = 0
    for a in (full, deficient):
        basis = kernel_basis_mod(a, 5)
        assert basis.tolist() == int_kernel(a.tolist(), cols, 5)
        assert basis.shape == (cols, cols - rank_mod(a, 5))


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
    with pytest.raises(ValueError):
        solve_affine_mod(np.eye(2, dtype=np.int64), [1], 5)


def padded_solve(systems, q):
    """_solve_stack on systems of any shapes, each padded with zero rows
    below [a | b] and zero columns between a and b: one int64 solution of
    length a.shape[1] per system, or None."""
    rows = max((a.shape[0] for a, _ in systems), default=0)
    cols = max((a.shape[1] for a, _ in systems), default=0)
    stack = np.zeros((rows, cols + 1, len(systems)), dtype=np.int64)
    for j, (a, b) in enumerate(systems):
        stack[: a.shape[0], : a.shape[1], j] = a
        stack[: a.shape[0], cols, j] = b
    x, consistent = _solve_stack(stack, q)
    return [x[j, : a.shape[1]] if ok else None for j, ((a, _), ok) in enumerate(zip(systems, consistent))]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3, 5, 7, 2053]), st.integers(1, 6), st.data())
def test_stacked_solve_matches_int_rref(q, count, data):
    # each system has its own shape, zero rows and zero columns included, so
    # the stack is padded; a right-hand side is a combination of the columns
    # (consistent) or drawn freely (inconsistent whenever it leaves the span)
    systems = []
    for _ in range(count):
        rows, cols = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
        entry = st.one_of(st.sampled_from([0, 1, q - 1]), st.integers(0, q - 1))
        a = np.array(data.draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols)), dtype=np.int64)
        a = a.reshape(rows, cols)
        if data.draw(st.booleans()):
            x = np.array(data.draw(st.lists(entry, min_size=cols, max_size=cols)), dtype=np.int64)
            b = a @ x % q if cols else np.zeros(rows, dtype=np.int64)
        else:
            b = np.array(data.draw(st.lists(entry, min_size=rows, max_size=rows)), dtype=np.int64)
        systems.append((a, b))
    got = padded_solve(systems, q)
    assert len(got) == count
    for (a, b), x in zip(systems, got):
        want = int_solve(a.tolist(), b.tolist(), a.shape[1], q)
        assert (None if x is None else x.tolist()) == want
        assert x is None or (x.dtype == np.int64 and x.shape == (a.shape[1],))
        one = solve_affine_mod(a, b, q)
        assert (None if one is None else one.tolist()) == want


def test_stacked_solve_of_nothing_and_of_zero_width_systems():
    assert padded_solve([], 5) == []
    # the empty-set case of witness_D: no unknowns, so only b = 0 is solvable
    none, empty = padded_solve([(np.zeros((3, 0)), [0, 1, 0]), (np.zeros((2, 0)), [0, 0])], 5)
    assert none is None
    assert empty.shape == (0,) and empty.dtype == np.int64
    assert solve_affine_mod(np.zeros((3, 0)), [0, 1, 0], 5) is None
    assert solve_affine_mod(np.zeros((2, 0)), [0, 0], 5).shape == (0,)


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
    c_outside, r_outside = _border_indicators(_residues(mats.transpose(1, 2, 0), q), q)
    assert c_outside.shape == r_outside.shape == (count,)
    for got_c, got_r, mat in zip(c_outside, r_outside, mats):
        rank_m = int_rank(mat[:m, :w].tolist(), q)
        assert got_c == int_rank(mat[:m, :].tolist(), q) - rank_m  # [M | c]
        assert got_r == int_rank(mat[:, :w].tolist(), q) - rank_m  # [M ; r]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.integers(300, 400),
    st.integers(1, 9),
    st.integers(1, 6),
    st.sampled_from([0.2, 0.5, 0.8]),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_f2_kernels_on_large_stacks_match_pure_int_reference(count, rows, cols, density, seed, data):
    # the q = 2 step (an AND and an XOR) on stacks of hundreds of matrices:
    # a third of them lose one column, and sometimes the whole stack does,
    # so some column steps find no pivot in some matrices or in any
    rng = np.random.default_rng(seed)
    mats = (rng.random((count, rows, cols)) < density).astype(np.int64)
    mats[rng.random(count) < 1 / 3, :, rng.integers(cols)] = 0
    if data.draw(st.booleans()):
        mats[:, :, data.draw(st.integers(0, cols - 1))] = 0
    mats += 2 * rng.integers(-2, 3, size=mats.shape)  # the same residues mod 2
    ranks = [int_rank(m.tolist(), 2) for m in mats]
    assert batch_rank_mod(mats, 2).tolist() == ranks
    for mat in mats:
        assert_echelon_routes(mat, 2)
    # the same stack read as bordered matrices [[M, c], [r, x]]
    c_outside, r_outside = _border_indicators(_residues(mats.transpose(1, 2, 0), 2), 2)
    for got_c, got_r, mat in zip(c_outside, r_outside, mats):
        rank_m = int_rank(mat[:-1, :-1].tolist(), 2)
        assert got_c == int_rank(mat[:-1].tolist(), 2) - rank_m
        assert got_r == int_rank(mat[:, :-1].tolist(), 2) - rank_m


def test_no_input_type_marks_its_entries_as_residues():
    # every public routine reduces what it is given, whatever its integer
    # type: -q, q, 2q - 1 and the type's extremes, wherever the type holds
    # them, read as their residues; a lone -q is 0, so c = [-q] lies in the
    # span of an M without columns
    q = LARGEST_PRIME
    assert _border_indicators(_residues(np.array([[[-q], [0]]]).transpose(1, 2, 0), q), q)[0].tolist() == [False]
    assert rank_mod(np.array([[-q, 0]]), q) == int_rank([[-q, 0]], q) == 0
    rng = np.random.default_rng(43)
    subsets = np.array(list(combinations(range(1, 6), 2)), dtype=np.intp)
    for q in (2, 11, 13, 181, 191, 46337, 46349, LARGEST_PRIME):
        # the matrix routines read their input as int64; batch_indicators
        # gathers from any integer type, unsigned ones too
        for kind in (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint64):
            info = np.iinfo(kind)
            values = [v for v in (0, 1, q - 1, -q, q, 2 * q - 1, info.min, info.max) if info.min <= v <= info.max]
            values = np.array(values, dtype=kind)
            gammas = rng.choice(values, size=(2, 6, 6))
            pi, der = batch_indicators(gammas, q, 0, subsets)
            for g, pi_g, der_g in zip(gammas.tolist(), pi.tolist(), der.tolist()):
                for b, pi_b, der_b in zip(subsets.tolist(), pi_g, der_g):
                    w = [v for v in range(1, 6) if v not in b]
                    m = [[g[u][v] for v in w] for u in b]
                    rank_m = int_rank(m, q)
                    c_out = int_rank([row + [g[u][0]] for row, u in zip(m, b)], q) - rank_m
                    r_out = int_rank(m + [[g[0][v] for v in w]], q) - rank_m
                    assert (pi_b, der_b) == (c_out, r_out - c_out)
            if info.min == 0:
                continue
            mats = rng.choice(values, size=(6, 4, 5))
            want = [int_rank(m.tolist(), q) for m in mats]
            assert batch_rank_mod(mats, q).tolist() == want
            assert [rank_mod(m, q) for m in mats] == want
            for m in mats:
                assert_echelon_routes(m, q)
                x = solve_affine_mod(m[:, :-1], m[:, -1], q)
                assert (x is None) == (int_rank(m.tolist(), q) > int_rank(m[:, :-1].tolist(), q))
                if x is not None:
                    assert ((m[:, :-1].astype(object) @ x.astype(object) - m[:, -1].astype(object)) % q == 0).all()
            c_outside, r_outside = _border_indicators(_residues(mats.transpose(1, 2, 0), q), q)
            for got_c, got_r, m in zip(c_outside, r_outside, mats):
                rank_m = int_rank(m[:-1, :-1].tolist(), q)
                assert got_c == int_rank(m[:-1, :].tolist(), q) - rank_m
                assert got_r == int_rank(m[:, :-1].tolist(), q) - rank_m


@pytest.mark.parametrize("bad", [0.5, float("nan"), 2**70])
def test_no_routine_truncates_a_non_integral_entry(bad):
    # a fraction, a NaN or an integer beyond int64 raises ValueError in
    # every public matrix routine, in batch_indicators and in
    # batch_accessible_at_k at every k (k = 1 is settled by no-cloning
    # before any set is ranked), wherever it sits; the same entry as an
    # integral float reads as the integer it equals
    def calls(entry):
        m = [[1, entry], [entry, 0]]
        gamma = np.array([[0, entry, 1], [entry, 0, 1], [1, 1, 0]])[None]
        return [
            lambda: as_integers(m, "entries"),
            lambda: _solve_stack(np.array(m)[:, :, None], 5),
            lambda: rank_mod(m, 5),
            lambda: kernel_basis_mod(m, 5),
            lambda: batch_rank_mod([m], 5),
            lambda: solve_affine_mod(m, [1, 0], 5),
            lambda: solve_affine_mod([[1, 0], [0, 1]], [1, entry], 5),
            lambda: batch_indicators(gamma, 5, 0, np.array([[1]])),
            lambda: batch_accessible_at_k(gamma, 5, 1),
            lambda: batch_accessible_at_k(gamma, 5, 2),
        ]

    def same(a, b):
        if isinstance(a, tuple):
            return all(same(x, y) for x, y in zip(a, b, strict=True))
        return b is None if a is None else np.array_equal(a, b)

    for call in calls(bad):
        with pytest.raises(ValueError, match="must be integers within int64"):
            call()
    for integral, exact in zip(calls(2.0), calls(2)):
        assert same(integral(), exact())


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
        for m in mats:
            assert_echelon_routes(m, q)
        c_outside, r_outside = _border_indicators(_residues(mats.transpose(1, 2, 0), q), q)
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
        c_outside, r_outside = _border_indicators(_residues(mats.transpose(1, 2, 0), q), q)
        for got_c, got_r, mat in zip(c_outside, r_outside, mats):
            rank_m = int_rank(mat[:-1, :-1].tolist(), q)
            assert got_c == int_rank(mat[:-1, :].tolist(), q) - rank_m
            assert got_r == int_rank(mat[:, :-1].tolist(), q) - rank_m
        basis = kernel_basis_mod(mats[-1], q)
        assert basis.tolist() == int_kernel(mats[-1].tolist(), cols, q)
        kept.append(((c_outside, r_outside, basis), (c_outside.copy(), r_outside.copy(), basis.copy())))
        for results, copies in kept:
            assert all(np.array_equal(a, b) for a, b in zip(results, copies))


def test_a_stack_above_the_cap_gets_a_buffer_of_its_own():
    # 300 order-12 graphs by the 462 sets of 6 players: 138,600 bordered 7x6
    # matrices, a 5.8 MB int8 stack. The buffer kept afterwards stays under the
    # cap, and the stack's own buffer ranks as the kept one does on chunks
    # of 10 graphs
    rng = np.random.default_rng(71)
    n, q, count = 12, 3, 300
    iu = np.triu_indices(n, 1)
    gammas = np.zeros((count, n, n), dtype=np.int64)
    gammas[:, iu[0], iu[1]] = rng.integers(0, q, size=(count, len(iu[0])))
    gammas += np.transpose(gammas, (0, 2, 1))
    subsets = np.array(list(combinations(range(1, n), 6)), dtype=np.intp)
    assert np.dtype(_kernel_type(q)).itemsize * 7 * 6 * count * len(subsets) > SCRATCH_CAP
    pi, der = batch_indicators(gammas, q, 0, subsets)
    assert getattr(qss.fqlinalg._scratch, "buf", np.empty(0)).nbytes <= SCRATCH_CAP
    for lo in range(0, count, 10):
        chunk_pi, chunk_der = batch_indicators(gammas[lo : lo + 10], q, 0, subsets)
        assert np.array_equal(chunk_pi, pi[lo : lo + 10]) and np.array_equal(chunk_der, der[lo : lo + 10])
    assert 0 < qss.fqlinalg._scratch.buf.nbytes <= SCRATCH_CAP


def test_border_indicators_degenerate_shapes():
    q = 5
    spans = lambda mats: _border_indicators(_residues(np.array(mats).transpose(1, 2, 0), q), q)
    # M with no rows (B empty): only r is tested, against the zero span
    c_out, r_out = spans([[[0, 3, 1]], [[0, 0, 4]]])
    assert c_out.tolist() == [False, False]
    assert r_out.tolist() == [True, False]
    # M with no columns (B + {d} = V): only c is tested, against the zero span
    c_out, r_out = spans([[[0], [2], [1]], [[0], [0], [3]]])
    assert c_out.tolist() == [True, False]
    assert r_out.tolist() == [False, False]
    # c and r inside the spans of a full-rank M, and the corner ignored
    c_out, r_out = spans([[[1, 2, 3], [0, 1, 4], [1, 3, 2]]])
    assert (c_out.tolist(), r_out.tolist()) == ([False], [False])
    for shape in ((0, 3, 4), (0, 1, 1)):
        c_out, r_out = spans(np.zeros(shape, dtype=np.int64))
        assert c_out.shape == r_out.shape == (0,)
