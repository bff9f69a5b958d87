"""Exact linear algebra over prime fields F_q.

All matrix routines operate on plain numpy integer arrays that are reduced
modulo a prime q on entry; there is no lazy reduction and no floating point.
Every routine is an entry to one fraction-free lockstep elimination,
`_eliminate`; the single-matrix routines run it on a stack of one. Pivots
are always the first nonzero entry of the current row/column, which keeps
every routine deterministic.
"""

from __future__ import annotations

import numpy as np


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate for field moduli."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# Every accepted field size is below this; see require_prime.
FIELD_SIZE_CEILING = 1 << 20


def require_prime(q: int) -> int:
    """Return q as an int if it is a prime below FIELD_SIZE_CEILING.

    The ceiling keeps every int64 intermediate exact. Residues are below
    q < 2^20, so a product of two is below 2^40: the elimination steps
    a - f * p and a * v - f * p stay far inside int64, and a row sum
    Gamma @ v of n such products (witness checks, neighbour multisets, the
    sufficient-condition scan) stays below n * 2^40 < 2^63 for every order
    n < 2^23, whose int64 adjacency matrix alone would take 512 TiB.

    Raises:
        ValueError: for a composite q or one at or above the ceiling. The
            ceiling is checked first, so an oversized modulus costs no trial
            division.
    """
    q = int(q)
    if q >= FIELD_SIZE_CEILING:
        raise ValueError(f"field size {q} is not below the ceiling {FIELD_SIZE_CEILING}")
    if not is_prime(q):
        raise ValueError(f"modulus must be a prime, got {q}")
    return q


def inv_mod(a: int, q: int) -> int:
    """Inverse of a modulo q via the extended Euclid built into pow.

    Raises:
        ZeroDivisionError: if a is divisible by q.
    """
    a = int(a) % q
    if a == 0:
        raise ZeroDivisionError(f"0 has no inverse in F_{q}")
    return pow(a, -1, q)


def _as_mod_array(a, q: int, ndim: int = 2) -> np.ndarray:
    arr = np.asarray(a, dtype=np.int64)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array, got shape {arr.shape}")
    return arr % q


def _eliminate(a: np.ndarray, q: int, rows: int, cols: int) -> np.ndarray:
    """Eliminate a reduced (N, R, C) stack in place, in lockstep; return
    the rank of each matrix's leading rows x cols block.

    Pivots come only from the leading rows x cols block, but every row is
    reduced, so rows below the block end up reduced against it. Elimination
    is fraction-free: each other row r becomes v * r - r[col] * p for the
    pivot row p with pivot value v. Scaling a row by a nonzero v keeps every
    span, so no inverse is needed and no table grows with q.
    """
    n = a.shape[0]
    pivot_row = np.zeros(n, dtype=np.int64)
    row_idx = np.arange(rows)[None, :]
    for col in range(cols):
        if (pivot_row >= rows).all():
            break
        eligible = (row_idx >= pivot_row[:, None]) & (a[:, :rows, col] != 0)
        has = eligible.any(axis=1)
        if not has.any():
            continue
        first = np.where(has, eligible.argmax(axis=1), 0)
        idx = np.nonzero(has)[0]
        pr, fr = pivot_row[idx], first[idx]
        tmp = a[idx, pr, :].copy()
        a[idx, pr, :] = a[idx, fr, :]
        a[idx, fr, :] = tmp
        # eliminate the pivot column from every other row of the live matrices
        piv_rows = a[idx, pr, :]
        factors = a[idx, :, col].copy()
        factors[np.arange(idx.size), pr] = 0
        a[idx] = (a[idx] * piv_rows[:, col, None, None] - factors[:, :, None] * piv_rows[:, None, :]) % q
        pivot_row[idx] = pr + 1
    return pivot_row


def rref_mod(a, q: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of a over F_q.

    A stack-of-one call to the fraction-free elimination, which leaves every
    pivot row a nonzero multiple of its RREF row; each is then scaled by the
    inverse of its pivot value.

    Returns:
        (R, pivot_cols) where R is the RREF and pivot_cols lists the pivot
        column of each nonzero row in order.
    """
    q = require_prime(q)
    r = _as_mod_array(a, q)
    rank = int(_eliminate(r[None], q, *r.shape)[0])
    pivots = [int(np.flatnonzero(row)[0]) for row in r[:rank]]
    for i, col in enumerate(pivots):
        r[i] = r[i] * inv_mod(r[i, col], q) % q
    return r, pivots


def rank_mod(a, q: int) -> int:
    """Rank of a over F_q. Empty matrices have rank 0."""
    return len(rref_mod(a, q)[1])


def kernel_basis_mod(a, q: int) -> np.ndarray:
    """Basis of the right kernel {x : a.x = 0 over F_q}.

    Returns:
        Array of shape (cols, k) whose columns are the basis vectors, built
        from the free columns of the RREF (deterministic).
    """
    r, pivots = rref_mod(a, q)
    cols = r.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for j, fc in enumerate(free):
        basis[fc, j] = 1
        for i, pc in enumerate(pivots):
            basis[pc, j] = (-r[i, fc]) % q
    return basis


def solve_affine_mod(a, b, q: int) -> np.ndarray | None:
    """Solve a.x = b over F_q.

    Returns:
        The deterministic particular solution (free variables set to 0), or
        None when the system is inconsistent.
    """
    q = require_prime(q)
    arr = _as_mod_array(a, q)
    rhs = np.asarray(b, dtype=np.int64).reshape(-1) % q
    rows, cols = arr.shape
    if rhs.shape[0] != rows:
        raise ValueError(f"shape mismatch: {arr.shape} vs rhs {rhs.shape}")
    r, pivots = rref_mod(np.concatenate([arr, rhs[:, None]], axis=1), q)
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.int64)
    x[pivots] = r[: len(pivots), cols]
    return x


def reduced_column_echelon_mod(a, q: int) -> np.ndarray:
    """Reduced column echelon form: nonzero columns first, each column's
    first nonzero entry is 1 and is the only nonzero entry of its row."""
    return rref_mod(np.asarray(a).T, q)[0].T.copy()


def batch_rank_mod(mats, q: int) -> np.ndarray:
    """Ranks of a stack of matrices over F_q, eliminated in lockstep.

    Args:
        mats: integer array of shape (N, rows, cols).

    Returns:
        int64 array of shape (N,).
    """
    q = require_prime(q)
    a = _as_mod_array(mats, q, ndim=3)
    return _eliminate(a, q, a.shape[1], a.shape[2])


def batch_border_indicators_mod(mats, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Span tests for a stack of bordered matrices [[M, c], [r, x]] over F_q.

    One lockstep elimination of M, with the last column c and the last row r
    carried along as a border (the corner x is ignored), decides both
    rank(M | c) - rank(M) and rank(M ; r) - rank(M).

    Args:
        mats: integer array of shape (N, m + 1, w + 1); M is m x w, and m
            or w may be 0.

    Returns:
        (c_outside, r_outside): bool arrays of shape (N,) holding
        c not in colspan M and r not in rowspan M.
    """
    q = require_prime(q)
    a = _as_mod_array(mats, q, ndim=3)
    _, rows, cols = a.shape
    if rows == 0 or cols == 0:
        raise ValueError(f"expected a border row and column, got shape {a.shape}")
    rank = _eliminate(a, q, rows - 1, cols - 1)
    # c is in colspan M exactly when it vanishes on the rows M reduced to 0;
    # r is in rowspan M exactly when its reduction against M vanishes
    below = np.arange(rows - 1)[None, :] >= rank[:, None]
    c_outside = ((a[:, :-1, -1] != 0) & below).any(axis=1)
    r_outside = (a[:, -1, :-1] != 0).any(axis=1)
    return c_outside, r_outside
